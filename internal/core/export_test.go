package core

import (
	"fmt"
	"math"

	"profitlb/internal/lp"
)

// GreedySeedObjective plans in with o, then runs o's greedy seed on in
// twice, each time through an engine of o's own as Plan does but with no
// capture to share its start: the first arms o's greedy chain, the second
// re-solves its start on it. It returns the objective of
// the assignment the second reaches and how its start was solved.
func GreedySeedObjective(o *Optimized, in *Input) (float64, string, error) {
	if _, err := o.Plan(in); err != nil {
		return 0, "", err
	}
	var a assignment
	for i := 0; i < 2; i++ {
		eng := o.open(in, o.Name(), o.PerServer, o.Refine)
		var err error
		a, err = o.greedySeed(eng, assignment{})
		eng.close()
		if err != nil {
			return 0, "", err
		}
	}
	return a.obj, o.warm.greedy.sv.LastOutcome().Path, nil
}

// evaluateLevels picks the set levels stands for and evaluates it on eng.
func evaluateLevels(eng *engine, pairs []pair, levels []int, from *prices, cutoff float64) (assignment, error) {
	kept, _ := eng.pick(pairs, levels)
	return eng.evaluate(levels, kept, from, cutoff)
}

// greedy is LevelSearch's Greedy strategy on eng: the climb from the
// all-tightest assignment, evaluated here rather than by a capture.
func greedy(eng *engine, pairs []pair) (assignment, error) {
	start, err := evaluateLevels(eng, pairs, make([]int, len(pairs)), nil, noCutoff)
	if err != nil {
		return assignment{}, err
	}
	return climb(eng, pairs, start)
}

// RefineSlotBusy is the capacity-limited refine fixture (refineSlotBusy).
func RefineSlotBusy() (*Optimized, *Input) { return refineSlotBusy() }

// TrialsAgainstSubsetLPs plans in twice with o, the second warm, holding
// every trial the hot unit answers to the subset LP it stands for,
// built on its own and started fresh: it
// returns how many trials it checked, how many of them their cutoff
// stopped, and an error for the first that disagrees with its subset LP —
// an optimum that differs by more than 1e-9 relative (the trial's solution
// passed the held LP's audit, or it would not have answered), or a cut
// whose bound is not between the subset's optimum and the cutoff.
func TrialsAgainstSubsetLPs(o *Optimized, in *Input) (checked, cuts int, _ error) {
	var first error
	o.warm.onTrial = func(comms []commodity, floors []float64, cutoff float64, res *lp.Result) {
		checked++
		d := buildDispatchLP(in, comms, floors, false, o.namesFor(in.Sys))
		var sv lp.Solver
		want, err := sv.SolveFresh(d.model, o.LPOpts)
		slack := 1e-9 * math.Max(1, math.Abs(want.Objective))
		switch {
		case res.Status == lp.Cutoff:
			cuts++
			if err == nil && (!(res.Objective < cutoff) || want.Objective >= cutoff+slack || res.Objective < want.Objective-slack) {
				err = fmt.Errorf("trial over %d commodities cut at %.17g under cutoff %.17g, its subset LP reaches %.17g", len(comms), res.Objective, cutoff, want.Objective)
			}
		case err == nil && math.Abs(res.Objective-want.Objective) > slack:
			err = fmt.Errorf("trial over %d commodities reaches %.17g, its subset LP %.17g", len(comms), res.Objective, want.Objective)
		}
		if first == nil && err != nil {
			first = err
		}
	}
	defer func() { o.warm.onTrial = nil }()
	for i := 0; i < 2; i++ {
		if _, err := o.Plan(in); err != nil {
			return checked, cuts, err
		}
	}
	return checked, cuts, first
}
