package core

import (
	"math"
	"reflect"
	"testing"

	"profitlb/internal/lp"
)

// The solver picks its warm kernel from the LP's row count and nothing
// outside package lp can force one, so these tests plan fixtures on either
// side of the rule and hold each warm chain to the WarmStart=false
// reference: a 2×6×3 slot, whose capture LP has 24 rows and every other
// fewer, stays on the dense warm tableau; a 6×10×3 slot's capture LP has 88
// rows and its single-level LP 58, both on the LU kernel — at load 3 with
// ~135 seeded survivors between 58 and 88 rows behind them.
var kernelFixtures = []struct {
	name    string
	K, L, S int
	load    float64
	sparse  bool
}{
	{"24-rows", 2, 6, 3, 1, false},
	{"58-and-88-rows", 6, 10, 3, 1, true},
	{"58-to-88-rows-busy", 6, 10, 3, 3, true},
}

func kernelChain(K, L, S int, load float64, slots int) []*Input {
	base := synthInput(K, L, S)
	seq := make([]*Input, slots)
	for t := range seq {
		seq[t] = chainInput(base, t, load)
	}
	return seq
}

func statsOptimized(warm bool) *Optimized {
	o := NewOptimized()
	o.WarmStart = warm
	o.Stats = &SearchStats{}
	return o
}

// TestSparseChainMatchesColdChain: on either side of the row rule a warm
// chain commits the cold reference's objectives within solver tolerance,
// with nothing abandoned, and the LU kernel fires exactly where the rule
// says.
func TestSparseChainMatchesColdChain(t *testing.T) {
	for _, fx := range kernelFixtures {
		t.Run(fx.name, func(t *testing.T) {
			warm, cold := statsOptimized(true), statsOptimized(false)
			var sparseSolves int64
			for i, in := range kernelChain(fx.K, fx.L, fx.S, fx.load, 4) {
				wp, cp := mustPlan(t, warm, in), mustPlan(t, cold, in)
				if math.Abs(wp.Objective-cp.Objective) > 1e-6*(1+math.Abs(cp.Objective)) {
					t.Fatalf("slot %d: warm objective %g vs cold %g", i, wp.Objective, cp.Objective)
				}
				if warm.Stats.WarmFallbacks != 0 || warm.Stats.AbandonedPivots != 0 || cold.Stats.SparseSolves != 0 {
					t.Fatalf("slot %d: warm %+v, cold %+v", i, *warm.Stats, *cold.Stats)
				}
				sparseSolves += warm.Stats.SparseSolves
			}
			if (sparseSolves > 0) != fx.sparse {
				t.Fatalf("%d sparse solves, want sparse=%v", sparseSolves, fx.sparse)
			}
		})
	}
}

// TestSparseChainReplayIdentical: two chains replay bit-identically on
// the sparse path too, because SolveFresh stays a pure function of
// the model there.
func TestSparseChainReplayIdentical(t *testing.T) {
	seq := kernelChain(6, 10, 3, 3, 3)
	first := statsOptimized(true)
	assertChainsEqual(t, "sparse replay", planChain(t, first, seq), planChain(t, NewOptimized(), seq))
	if first.Stats.SparseSolves == 0 {
		t.Fatal("the chain never took a sparse path")
	}
}

// TestSparseDefaultBelowThresholdStaysDense: the small test topology never
// crosses the row rule, so its warm chain stays on the dense kernel.
func TestSparseDefaultBelowThresholdStaysDense(t *testing.T) {
	base := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	def := statsOptimized(true)
	for i, in := range slotSequence(base, 4) {
		mustPlan(t, def, in)
		if def.Stats.SparseSolves != 0 || def.Stats.WarmHits == 0 {
			t.Fatalf("slot %d: a small warm chain ran %+v", i, *def.Stats)
		}
	}
}

// TestHorizonPlannerSparse: an eight-slot window couples enough rows to
// cross the rule, and the horizon planner's warm windows agree with the
// cold window solves on the sparse simplex.
func TestHorizonPlannerSparse(t *testing.T) {
	hp := NewHorizonPlanner()
	for i := 0; i < 3; i++ {
		h := deferScenario(8)
		// Drift prices a little so successive windows differ.
		for tt := range h.Prices {
			h.Prices[tt][0] *= 1 + 0.05*float64(i)
		}
		warm, err := hp.Plan(h)
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		if out := hp.warm.hot.sv.LastOutcome(); !out.Sparse || out.FellBack {
			t.Fatalf("window %d solved as %+v, want the sparse kernel", i, out)
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

// TestDeprecatedSparseFieldsIgnored: lp.Options.Sparse and
// EngineOptions.Sparse survive one PR for bench/slots.go and select
// nothing. Whatever they say, a chain commits the same plans to the bit,
// books the same solver counters and ends its capture solve the same way.
func TestDeprecatedSparseFieldsIgnored(t *testing.T) {
	for _, fx := range kernelFixtures {
		t.Run(fx.name, func(t *testing.T) {
			seq := kernelChain(fx.K, fx.L, fx.S, fx.load, 3)
			ref := statsOptimized(true)
			want := planChain(t, ref, seq)
			for _, set := range []struct{ engine, solver bool }{{true, true}, {true, false}, {false, true}} {
				o := statsOptimized(true)
				o.Sparse, o.LPOpts.Sparse = set.engine, set.solver
				assertChainsEqual(t, "fields set", want, planChain(t, o, seq))
				if !reflect.DeepEqual(*o.Stats, *ref.Stats) || o.warm.hot.sv.LastOutcome() != ref.warm.hot.sv.LastOutcome() {
					t.Fatalf("Sparse=%v LPOpts.Sparse=%v: ran %+v, last %+v; the zero fields ran %+v, last %+v", set.engine, set.solver,
						*o.Stats, o.warm.hot.sv.LastOutcome(), *ref.Stats, ref.warm.hot.sv.LastOutcome())
				}
			}
		})
	}
}
