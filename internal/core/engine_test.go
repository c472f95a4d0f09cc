package core

import (
	"fmt"
	"slices"
	"testing"

	"profitlb/internal/datacenter"
	"profitlb/internal/tuf"
)

// rob2ChaosScaleInput is the root package's plan-search slot: the Section
// VII two-level topology grown to three classes and a third center that
// is unprofitable for every class, so exhaustive level search walks 3^6
// of the 3^9 level vectors.
func rob2ChaosScaleInput() *Input {
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "request1", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.005}, {Utility: 4, Deadline: 0.02}}), TransferCostPerMile: 0.0002},
			{Name: "request2", TUF: tuf.MustNew([]tuf.Level{{Utility: 20, Deadline: 0.004}, {Utility: 8, Deadline: 0.015}}), TransferCostPerMile: 0.0003},
			{Name: "request3", TUF: tuf.MustNew([]tuf.Level{{Utility: 15, Deadline: 0.006}, {Utility: 6, Deadline: 0.03}}), TransferCostPerMile: 0.0002},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "frontend", DistanceMiles: []float64{1000, 2000, 1500}}},
		Centers: []datacenter.DataCenter{
			{Name: "dc1", Servers: 6, Capacity: 1, ServiceRate: []float64{1500, 600, 1000}, EnergyPerRequest: []float64{0.0004, 0.0006, 0.0005}},
			{Name: "dc2", Servers: 6, Capacity: 1, ServiceRate: []float64{1200, 900, 1100}, EnergyPerRequest: []float64{0.0005, 0.0005, 0.0005}},
			{Name: "dc3", Servers: 6, Capacity: 1, ServiceRate: []float64{1000, 1000, 1000}, EnergyPerRequest: []float64{0.9, 0.9, 0.9}},
		},
	}
	return &Input{Sys: sys, Arrivals: [][]float64{{3000, 2500, 2800}}, Prices: []float64{40, 45, 60}}
}

// asked records the requests a planner's engine answers, through the solve
// hook, as the questions the law below tells apart: the set's (k, q, l)s,
// its floors and the identity of the incumbent it was asked beside (0:
// none). A cold engine's solutions carry no identity, so there only the
// requests beside no incumbent are recorded: the capture and the walks'
// leaves and relaxations. toggles counts the repeats that are one
// commodity in or out of their incumbent's set, and own lists the requests
// that are their incumbent's own question: its set and its floors, which
// floorsOf keeps for each identity the call handed out.
type asked struct {
	warm            bool
	seen            map[string]int
	floorsOf        map[uint64][]float64
	solves, toggles int64
	repeats, own    []string
}

// reset starts a Plan call's record.
func (a *asked) reset() {
	a.seen, a.floorsOf, a.solves, a.toggles, a.repeats, a.own = map[string]int{}, map[uint64][]float64{}, 0, 0, nil, nil
}

func (a *asked) watch(e *EngineOptions) {
	a.warm = e.WarmStart
	a.reset()
	e.warm.onSolve = func(comms []commodity, floors []float64, from *prices, sol solution, _ error) {
		a.solves++
		if from != nil && !a.warm {
			return
		}
		if sol.px != nil {
			a.floorsOf[sol.px.seed] = floors
		}
		key := fmt.Sprint(floors)
		for _, c := range comms {
			key += fmt.Sprintf(" %d.%d.%d", c.k, c.q, c.l)
		}
		if from != nil {
			key += fmt.Sprint(" beside ", from.seed)
			if sameSet(comms, from.comms) && slices.Equal(floors, a.floorsOf[from.seed]) {
				a.own = append(a.own, key)
			}
		}
		if a.seen[key]++; a.seen[key] == 2 {
			a.repeats = append(a.repeats, key)
			if from != nil && toggled(from.comms, comms) {
				a.toggles++
			}
		}
	}
}

// toggled reports whether the canonical sets a and b differ by one commodity.
func toggled(a, b []commodity) bool {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(a) != len(b)+1 {
		return false
	}
	for i := range a {
		if sameSet(append(slices.Clone(a[:i]), a[i+1:]...), b) {
			return true
		}
	}
	return false
}

// TestNoQuestionTwice is the law that lets every request be a solve: no
// search asks one question twice. On a warm engine, whose solutions carry
// identities, a question is (set, floors, incumbent): every planner is
// held to it over a drifting chain. LevelSearch's walks, whose requests
// are beside no incumbent, ask no set twice on any engine: the capture is
// their first leaf and greedy's start, and a set is asked at its
// canonical level vector only. The refine planner's two searches can
// share an incumbent — the capture, where it is the greedy start, and the
// climb's end, where the second toggle search starts — and beside it the
// climb's moves that take one pair out or put one in are the toggle
// search's moves too: where the greedy start is the full set, those, and
// only those, are asked again. No request is its incumbent's own
// question, whose answer the incumbent is: the climb skips a move whose
// kept set is its incumbent's (an evicted pair moved to a level that
// leaves the set as it was), and the greedy start takes the answer of the
// search it would be asked beside where their sets agree. The warm busy
// refine slot asks more than a hundred questions and repeats none, and
// exhaustive level search on rob2-chaos-scale asks one per kept set: 728.
func TestNoQuestionTwice(t *testing.T) {
	levelSearch := func(s Strategy, warm bool) func() (Planner, *EngineOptions) {
		return func() (Planner, *EngineOptions) {
			ls := NewLevelSearch()
			ls.Strategy, ls.WarmStart = s, warm
			return ls, &ls.EngineOptions
		}
	}
	optimized := func(floors ...float64) func() (Planner, *EngineOptions) {
		return func() (Planner, *EngineOptions) {
			o := NewOptimized()
			o.MinCompletion = floors
			return o, &o.EngineOptions
		}
	}
	busy := func() *Input { _, in := refineSlotBusy(); return in }
	for _, c := range []struct {
		name   string
		make   func() (Planner, *EngineOptions)
		in     func() *Input
		shared bool  // the refine searches may share an incumbent
		least  int64 // solves of the first Plan call
	}{
		{"optimized/busy", optimized(), busy, false, 100},
		{"optimized/multi-level", optimized(), multiLevelInput, false, 5},
		{"optimized/floors", optimized(0.3, 0.6), multiLevelInput, false, 5},
		{"optimized/greedy-start-is-full-set", optimized(), refineChains[2].base, true, 5},
		{"optimized/rob2", optimized(), rob2ChaosScaleInput, false, 20},
		{"exhaustive/rob2/warm", levelSearch(Exhaustive, true), rob2ChaosScaleInput, false, 728},
		{"exhaustive/rob2/cold", levelSearch(Exhaustive, false), rob2ChaosScaleInput, false, 728},
		{"exhaustive/multi-level/warm", levelSearch(Exhaustive, true), multiLevelInput, false, 5},
		{"exhaustive/multi-level/cold", levelSearch(Exhaustive, false), multiLevelInput, false, 5},
		{"branch-bound/rob2/warm", levelSearch(BranchBound, true), rob2ChaosScaleInput, false, 20},
		{"branch-bound/rob2/cold", levelSearch(BranchBound, false), rob2ChaosScaleInput, false, 20},
		{"branch-bound/multi-level/warm", levelSearch(BranchBound, true), multiLevelInput, false, 5},
		{"branch-bound/multi-level/cold", levelSearch(BranchBound, false), multiLevelInput, false, 5},
		{"greedy/rob2/warm", levelSearch(Greedy, true), rob2ChaosScaleInput, false, 5},
		{"greedy/multi-level/warm", levelSearch(Greedy, true), multiLevelInput, false, 2},
		{"greedy/busy/warm", levelSearch(Greedy, true), busy, false, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, opts := c.make()
			a := &asked{}
			a.watch(opts)
			for slot, in := range slotSequence(c.in(), 3) {
				a.reset()
				mustPlan(t, p, in)
				t.Logf("slot %d: %d solves, %d questions asked again", slot, a.solves, len(a.repeats))
				if n := int64(len(a.repeats)); n > 0 && (!c.shared || a.toggles != n) {
					t.Fatalf("slot %d asked %d questions again: %v", slot, n, a.repeats)
				}
				if len(a.own) > 0 {
					t.Fatalf("slot %d asked %d incumbents their own question: %v", slot, len(a.own), a.own)
				}
				if slot == 0 && a.solves < c.least {
					t.Fatalf("slot 0 solved %d LPs, want at least %d: fixture drifted", a.solves, c.least)
				}
			}
		})
	}
}

// TestStatsLiveWhenWarmSerial: the engine's stats are live, and the warm
// counters show the cold first slot and the warm-started second.
func TestStatsLiveWhenWarmSerial(t *testing.T) {
	in := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	o := NewOptimized()
	o.Stats = &SearchStats{}
	mustPlan(t, o, in)
	if o.Stats.Solves == 0 {
		t.Fatalf("the engine reported no LP solves, got stats %+v", *o.Stats)
	}
	if o.Stats.ColdPivots == 0 {
		t.Fatalf("first Plan of a fresh planner solves cold, got stats %+v", *o.Stats)
	}
	// The second slot re-solves the held LP from the first slot's optimum.
	mustPlan(t, o, in)
	if o.Stats.WarmHits == 0 {
		t.Fatalf("second Plan must warm-start, got stats %+v", *o.Stats)
	}
}
