package core

import (
	"math"
	"testing"

	"profitlb/internal/lp"
)

// sparseOptimized returns an Optimized planner with the sparse revised
// simplex forced on for every LP size (the test topologies sit far below
// the production row threshold).
func sparseOptimized() *Optimized {
	o := NewOptimized()
	o.LPOpts.SparseMinRows = 1
	o.Stats = &SearchStats{}
	return o
}

// TestSparseChainMatchesDenseWarmChain: the sparse chain must commit
// plans whose objectives agree with the dense warm chain within solver
// tolerance, and the sparse path must actually fire.
func TestSparseChainMatchesDenseWarmChain(t *testing.T) {
	base := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	seq := slotSequence(base, 6)

	sparse := sparseOptimized()
	dense := NewOptimized()
	dense.Sparse = false
	dense.Stats = &SearchStats{}

	var sparseSolves, abandoned int64
	for i, in := range seq {
		sp, err := sparse.Plan(in)
		if err != nil {
			t.Fatalf("slot %d sparse: %v", i, err)
		}
		dp, err := dense.Plan(in)
		if err != nil {
			t.Fatalf("slot %d dense: %v", i, err)
		}
		if math.Abs(sp.Objective-dp.Objective) > 1e-6*(1+math.Abs(dp.Objective)) {
			t.Fatalf("slot %d: sparse objective %g vs dense %g", i, sp.Objective, dp.Objective)
		}
		sparseSolves += sparse.Stats.SparseSolves
		abandoned += sparse.Stats.AbandonedPivots
		if dense.Stats.SparseSolves != 0 {
			t.Fatalf("slot %d: dense planner reported sparse solves: %+v", i, *dense.Stats)
		}
	}
	if sparseSolves == 0 {
		t.Fatal("sparse chain never took a sparse path")
	}
	t.Logf("sparse solves %d, abandoned pivots %d across %d slots", sparseSolves, abandoned, len(seq))
}

// TestSparseChainReplayIdentical: two chains replay bit-identically on
// the sparse path too, because SolveSeeded stays a pure function of
// (model, seed) there.
func TestSparseChainReplayIdentical(t *testing.T) {
	base := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	seq := slotSequence(base, 5)
	assertChainsEqual(t, "sparse replay", planChain(t, sparseOptimized(), seq), planChain(t, sparseOptimized(), seq))
}

// TestSparseDefaultBelowThresholdStaysDense: with the default row
// threshold, the small test topology never crosses into the sparse path,
// so a default planner chain is bit-identical to an explicit
// Sparse=false chain — the knob cannot perturb existing small runs.
func TestSparseDefaultBelowThresholdStaysDense(t *testing.T) {
	base := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	seq := slotSequence(base, 4)
	def := NewOptimized()
	def.Stats = &SearchStats{}
	off := NewOptimized()
	off.Sparse = false
	want := planChain(t, off, seq)
	got := planChain(t, def, seq)
	assertChainsEqual(t, "default-vs-off", want, got)
	if def.Stats.SparseSolves != 0 {
		t.Fatalf("default planner went sparse below the row threshold: %+v", *def.Stats)
	}
}

// TestHorizonPlannerSparse: the horizon planner's warm windows agree
// with the cold window solves when routed through the sparse simplex.
func TestHorizonPlannerSparse(t *testing.T) {
	hp := NewHorizonPlanner()
	hp.LPOpts.SparseMinRows = 1
	for i, slots := range []int{4, 4, 4} {
		h := deferScenario(slots)
		// Drift prices a little so successive windows differ.
		for tt := range h.Prices {
			h.Prices[tt][0] *= 1 + 0.05*float64(i)
		}
		warm, err := hp.Plan(h)
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		cold, err := PlanHorizon(h, lp.Options{})
		if err != nil {
			t.Fatalf("window %d cold: %v", i, err)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("window %d: sparse warm objective %g vs cold %g", i, warm.Objective, cold.Objective)
		}
	}
}
