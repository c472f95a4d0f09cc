package core

import "testing"

// TestMemoCacheHits proves the subset-LP cache actually fires on the
// redundant solves the searches generate — for the refine search, the
// moves a converged pass asks for again beside the same incumbent — and
// that the planner reports its counters through Stats.
func TestMemoCacheHits(t *testing.T) {
	o, in := refineSlotBusy()
	mustPlan(t, o, in)
	if o.Stats.Solves == 0 {
		t.Fatal("engine reported no LP solves")
	}
	if o.Stats.CacheHits == 0 {
		t.Fatal("subset cache never hit during the refine search")
	}

	in = &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	ls := NewLevelSearch()
	ls.Strategy = BranchBound
	ls.Stats = &SearchStats{}
	mustPlan(t, ls, in)
	if ls.Stats.CacheHits == 0 {
		t.Fatal("subset cache never hit during branch-and-bound")
	}
}

// TestCacheKeySeparatesRelaxations guards the packed cache key's core
// invariant: a commodity is identified by (k, q, l) because utility and
// deadline are functions of (k, q) through the class TUF. The one
// producer of off-ladder combinations — branch-and-bound's relaxation,
// which pairs max utility with the loosest deadline — must therefore
// carry the NumLevels sentinel, never a real level, or its cache
// entries would be conflated with the real level-0 solves of the same
// pairs within one Plan call.
func TestCacheKeySeparatesRelaxations(t *testing.T) {
	in := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	cls := in.Sys.Classes[0].TUF
	if cls.Deadline() == cls.Level(0).Deadline {
		t.Fatal("fixture must have a loosest deadline distinct from level 0")
	}
	real := []commodity{{k: 0, q: 0, l: 0, utility: cls.Level(0).Utility, deadline: cls.Level(0).Deadline}}
	relax := []commodity{{k: 0, q: cls.NumLevels(), l: 0, utility: cls.MaxUtility(), deadline: cls.Deadline()}}
	if string(appendCacheKey(nil, real, nil, 0)) == string(appendCacheKey(nil, relax, nil, 0)) {
		t.Fatal("relaxation commodity shares a cache key with the real level-0 commodity")
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
