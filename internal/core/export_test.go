package core

import (
	"fmt"
	"math"

	"profitlb/internal/lp"
)

// GreedySeedObjective plans in with o, whose capture exports the seed a
// greedy start imports, then runs o's greedy seed on in twice, each time
// through an engine of o's own as Plan does: the first arms o's greedy
// chain, the second re-solves its start on it. It returns the objective of
// the assignment the second reaches and how its start was solved.
func GreedySeedObjective(o *Optimized, in *Input) (float64, string, error) {
	if _, err := o.Plan(in); err != nil {
		return 0, "", err
	}
	var a assignment
	for i := 0; i < 2; i++ {
		eng := o.open(in, o.Name(), o.PerServer, o.Refine)
		var err error
		a, err = o.greedySeed(eng)
		eng.close()
		if err != nil {
			return 0, "", err
		}
	}
	return a.obj, o.warm.greedy.sv.LastOutcome().Path, nil
}

// RefineSlotBusy is the capacity-limited refine fixture (refineSlotBusy).
func RefineSlotBusy() (*Optimized, *Input) { return refineSlotBusy() }

// TrialsAgainstSubsetLPs plans in twice with o, the second warm, holding
// every trial the hot unit answers to the subset LP it stands for,
// built on its own and solved seeded from the slot's frozen seed: it
// returns how many trials it checked and an error for the first whose
// objective differs by more than 1e-9 relative (the trial's solution passed
// the held LP's audit, or it would not have answered).
func TrialsAgainstSubsetLPs(o *Optimized, in *Input) (int, error) {
	var checked int
	var first error
	o.warm.onTrial = func(comms []commodity, floors []float64, res *lp.Result) {
		checked++
		d := buildDispatchLP(in, comms, floors, false, o.namesFor(in.Sys))
		var sv lp.Solver
		want, err := sv.SolveSeeded(d.model, o.warm.cur, o.LPOpts)
		if err == nil && math.Abs(res.Objective-want.Objective) > 1e-9*math.Max(1, math.Abs(want.Objective)) {
			err = fmt.Errorf("trial over %d commodities reaches %.17g, its subset LP %.17g", len(comms), res.Objective, want.Objective)
		}
		if first == nil && err != nil {
			first = err
		}
	}
	defer func() { o.warm.onTrial = nil }()
	for i := 0; i < 2; i++ {
		if _, err := o.Plan(in); err != nil {
			return checked, err
		}
	}
	return checked, first
}
