package lp

import (
	"reflect"
	"testing"
)

// ladderKernels forces each of the Solver's two warm kernels onto the
// small test LPs through the package's seam, so every test below asserts
// the ladder's contract — hot on the same structure, a fresh start on a
// changed one, a cold optimum handed to the warm kernel, audited cold
// fallback, the drift bound — once, over both.
var ladderKernels = []struct {
	name   string
	solver func() *Solver
	sparse bool
}{
	{"dense", onDense, false},
	{"sparse", onSparse, true},
}

// requireMatchesCold checks a warm result against the cold reference of
// the same model: objective and duals within 1e-9, solution feasible.
func requireMatchesCold(t *testing.T, m *Model, res *Result) *Result {
	t.Helper()
	cold, err := m.SolveOpts(Options{})
	if err != nil {
		t.Fatalf("cold reference: %v", err)
	}
	requireClose(t, "objective", res.Objective, cold.Objective)
	for i := range cold.Duals {
		requireClose(t, "dual", res.Duals[i], cold.Duals[i])
	}
	if err := m.CheckFeasible(res.X, 1e-6); err != nil {
		t.Fatal(err)
	}
	return cold
}

// TestSolveWarmHotPath runs the canonical slot chain on the transport LP.
// Its EQ row has no slack, so slot 0 goes cold on either kernel — the
// dense one starts cold, the sparse one tries the all-slack crash and falls
// back — and the cold optimum is kept, so every later slot runs hot, the
// first crashing its basis into the warm kernel. A changed constraint
// matrix starts over once, after which the chain is hot again.
func TestSolveWarmHotPath(t *testing.T) {
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			s := kn.solver()
			handed := false // the slot before went cold: this one hands its optimum over
			step := func(slot int, m *Model, wantPath string) {
				t.Helper()
				res, err := s.SolveWarm(m, nil, Options{})
				if err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
				out := s.LastOutcome()
				if out.Path != wantPath {
					t.Fatalf("slot %d: path %q (fellBack=%v), want %q", slot, out.Path, out.FellBack, wantPath)
				}
				warm := wantPath != "cold"
				if out.Sparse != (kn.sparse && warm) || res.Warm != warm {
					t.Fatalf("slot %d (%s): Sparse=%v Warm=%v", slot, wantPath, out.Sparse, res.Warm)
				}
				if wantFell := kn.sparse && !warm; out.FellBack != wantFell {
					t.Fatalf("slot %d (%s): FellBack=%v, want %v", slot, wantPath, out.FellBack, wantFell)
				}
				if warm && (out.ImportPivots > 0) != handed {
					t.Fatalf("slot %d (%s): %d crash pivots, want them on the hand-over alone", slot, wantPath, out.ImportPivots)
				}
				handed = !warm
				cold := requireMatchesCold(t, m, res)
				if wantPath == "hot" && res.Iterations >= cold.Iterations && cold.Iterations > 2 {
					t.Fatalf("slot %d: hot path spent %d pivots, cold %d — no savings",
						slot, res.Iterations, cold.Iterations)
				}
			}
			for slot, path := range []string{"cold", "hot", "hot", "hot", "hot", "hot"} {
				scale := 1 + 0.05*float64(slot)
				step(slot, buildTransportLP(scale, 1/scale), path)
			}
			for i, path := range []string{"cold", "hot"} {
				m := buildTransportLP(1.3+0.05*float64(i), 1)
				m.AddConstraint("lane_0_0", []Term{{Var: 0, Coef: 1}}, LE, 1000)
				step(6+i, m, path)
			}
		})
	}
}

// TestSolveSeededImportMatchesCold: a seedless SolveFresh starts over on
// the kernel it is given — cold on the dense one, the all-slack crash on
// the sparse one — matches the cold reference, and is a pure function of
// (model, opts): the same bits from a fresh solver, from the same solver
// again, and from one that accumulated hot state first, which it leaves
// behind for SolveWarm to pick up.
func TestSolveSeededImportMatchesCold(t *testing.T) {
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			start := map[bool]string{false: "cold", true: "fresh"}[kn.sparse]
			m1 := buildInequalityLP(1.05)
			s := kn.solver()
			want, err := s.SolveFresh(m1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if out := s.LastOutcome(); out.Path != start || out.Sparse != kn.sparse {
				t.Fatalf("outcome %+v, want %s on the %s kernel", out, start, kn.name)
			}
			requireMatchesCold(t, m1, want)
			again, err := s.SolveFresh(m1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, again) {
				t.Fatal("SolveFresh is not a pure function of (model, opts)")
			}
			dirty := kn.solver()
			for i := 0; i < 3; i++ { // accumulate hot state first
				if _, err := dirty.SolveWarm(buildInequalityLP(1+0.1*float64(i)), nil, Options{}); err != nil {
					t.Fatal(err)
				}
			}
			if dirty.LastOutcome().Path != "hot" {
				t.Fatalf("dirty solver never went hot: %+v", dirty.LastOutcome())
			}
			got, err := dirty.SolveFresh(m1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("SolveFresh not pure after hot solves:\nfresh %+v\ndirty %+v", want, got)
			}
			if out := dirty.LastOutcome(); out.Path != start || out.Sparse != kn.sparse {
				t.Fatalf("outcome %+v, want %s", out, start)
			}
			// ...and it left no hot state behind for SolveWarm to pick up.
			if _, err := dirty.SolveWarm(m1, nil, Options{}); err != nil {
				t.Fatal(err)
			}
			if out := dirty.LastOutcome(); out.Path != start {
				t.Fatalf("SolveWarm after SolveFresh took path %q, want %s", out.Path, start)
			}
		})
	}
}

// TestLadderDriftBound: after maxHotUses hot re-solves on one
// factorization either kernel refactorizes in place from its basis — the
// dense one rebuilds its tableau — and stays hot, and says so in
// Outcome.Refactors, not as a basis crashed into ImportPivots.
func TestLadderDriftBound(t *testing.T) {
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			s := kn.solver()
			for i := 0; i <= maxHotUses+2; i++ {
				m := buildInequalityLP(1 + 0.001*float64(i%7))
				res, err := s.SolveWarm(m, nil, Options{})
				if err != nil {
					t.Fatalf("solve %d: %v", i, err)
				}
				want := "hot"
				if i == 0 {
					want = map[bool]string{false: "cold", true: "fresh"}[kn.sparse]
				}
				out := s.LastOutcome()
				if out.Path != want || out.FellBack || out.AbandonedPivots != 0 {
					t.Fatalf("solve %d: outcome %+v, want %s", i, out, want)
				}
				refactors := 0
				if i == maxHotUses+1 {
					refactors = 1
				}
				if out.Refactors != refactors || (i > 1 && out.ImportPivots != 0) {
					t.Fatalf("solve %d: outcome %+v, want %d refactorizations and a hot solve from a kept kernel to crash nothing", i, out, refactors)
				}
				requireMatchesCold(t, m, res)
			}
		})
	}
}

// TestAbandonedPivotAccounting verifies that pivots burned on abandoned
// warm attempts are reported instead of vanishing: a budget-starved warm
// solve must surface them in Outcome.AbandonedPivots, while healthy chains
// report zero.
func TestAbandonedPivotAccounting(t *testing.T) {
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			healthy := kn.solver()
			for slot := 0; slot < 3; slot++ {
				scale := 1 + 0.1*float64(slot)
				if _, err := healthy.SolveWarm(buildTransportLP(scale, 1), nil, Options{}); err != nil {
					t.Fatal(err)
				}
				if out := healthy.LastOutcome(); out.AbandonedPivots != 0 {
					t.Fatalf("slot %d: abandoned pivots %d on a healthy chain", slot, out.AbandonedPivots)
				}
			}

			// A one-pivot budget starves the warm attempt mid-repair; the
			// burned pivot must be accounted, not lost. On the sparse kernel
			// that is the fresh start, whose all-surplus crash of the Beale
			// dual cannot be repaired in one pivot; on the dense one, which
			// starts cold, it is a hot re-solve after every other capacity
			// shrank a hundredfold, which takes three dual pivots to repair.
			starved := kn.solver()
			m, wantCrash := buildBealeDual(), 4
			if !kn.sparse {
				m, wantCrash = packingLP(3, 12, 20), 0
				for i := 0; i < 2; i++ { // cold, then hot on the optimum handed over
					if _, err := starved.SolveWarm(m, nil, Options{}); err != nil {
						t.Fatal(err)
					}
				}
				for i := range m.rows {
					if m.rows[i].sense == LE && i%2 == 0 {
						m.SetRHS(i, m.rows[i].rhs/100)
					}
				}
			}
			res, err := starved.SolveWarm(m, nil, Options{MaxIterations: 1})
			out := starved.LastOutcome()
			if !out.FellBack || out.Path != "cold" {
				t.Fatalf("outcome %+v (res %v err %v), want cold fallback", out, res, err)
			}
			if out.AbandonedPivots != 1 || out.ImportPivots != wantCrash {
				t.Fatalf("outcome %+v: want the one budgeted pivot abandoned and %d crash pivots on their own line", out, wantCrash)
			}
		})
	}
}
