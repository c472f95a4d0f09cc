package lp

import (
	"reflect"
	"testing"
)

// ladderKernels forces each of the Solver's two warm kernels onto the
// small test LPs through the package's seam, so every test below asserts
// the ladder's contract — hot on the same structure, import on a changed
// one, audited cold fallback, the drift bound, SolveSeeded purity, basis
// round-trip — once, over both.
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
// Its EQ row has no slack, so the seedless slot 0 goes cold on either
// kernel — the dense one refuses an empty seed outright, the sparse one
// tries the all-slack crash and falls back; slot 1 imports the exported
// basis; later slots run hot on the retained kernel. A changed constraint
// matrix then forces one import, after which the chain is hot again.
func TestSolveWarmHotPath(t *testing.T) {
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			s := kn.solver()
			var seed *Basis
			step := func(slot int, m *Model, wantPath string) {
				t.Helper()
				res, err := s.SolveWarm(m, seed, Options{})
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
				cold := requireMatchesCold(t, m, res)
				if wantPath == "hot" && res.Iterations >= cold.Iterations && cold.Iterations > 2 {
					t.Fatalf("slot %d: hot path spent %d pivots, cold %d — no savings",
						slot, res.Iterations, cold.Iterations)
				}
				b, ok := s.ExportBasis()
				if !ok {
					t.Fatalf("slot %d: basis not exportable", slot)
				}
				seed = b
			}
			for slot, path := range []string{"cold", "import", "hot", "hot", "hot", "hot"} {
				scale := 1 + 0.05*float64(slot)
				step(slot, buildTransportLP(scale, 1/scale), path)
			}
			for i, path := range []string{"import", "hot"} {
				m := buildTransportLP(1.3+0.05*float64(i), 1)
				m.AddConstraint("lane_0_0", []Term{{Var: 0, Coef: 1}}, LE, 1000)
				step(6+i, m, path)
			}
		})
	}
}

// TestSolveSeededImportMatchesCold: a seeded solve imports, matches the
// cold reference, and is a pure function of (model, seed, opts) — the
// same bits from a fresh solver, from the same solver again, and from one
// that accumulated hot state first.
func TestSolveSeededImportMatchesCold(t *testing.T) {
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			var base Solver
			if _, err := base.Solve(buildTransportLP(1, 1), Options{}); err != nil {
				t.Fatal(err)
			}
			seed, ok := base.ExportBasis()
			if !ok {
				t.Fatal("no basis exported")
			}
			m1 := buildTransportLP(1.05, 0.97)
			s := kn.solver()
			want, err := s.SolveSeeded(m1, seed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if out := s.LastOutcome(); out.Path != "import" || out.Sparse != kn.sparse {
				t.Fatalf("outcome %+v, want import on the %s kernel", out, kn.name)
			}
			requireMatchesCold(t, m1, want)
			again, err := s.SolveSeeded(m1, seed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, again) {
				t.Fatal("SolveSeeded is not a pure function of (model, seed, opts)")
			}
			dirty := kn.solver()
			for i := 0; i < 3; i++ { // accumulate hot state first
				if _, err := dirty.SolveWarm(buildTransportLP(1+0.1*float64(i), 1), seed, Options{}); err != nil {
					t.Fatal(err)
				}
			}
			if dirty.LastOutcome().Path != "hot" {
				t.Fatalf("dirty solver never went hot: %+v", dirty.LastOutcome())
			}
			got, err := dirty.SolveSeeded(m1, seed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("SolveSeeded not pure after hot solves:\nfresh %+v\ndirty %+v", want, got)
			}
			if out := dirty.LastOutcome(); out.Path != "import" || out.Sparse != kn.sparse {
				t.Fatalf("outcome %+v, want import", out)
			}
			// ...and it left no hot state behind for SolveWarm to pick up.
			if _, err := dirty.SolveWarm(m1, seed, Options{}); err != nil {
				t.Fatal(err)
			}
			if out := dirty.LastOutcome(); out.Path != "import" {
				t.Fatalf("SolveWarm after SolveSeeded took path %q, want import", out.Path)
			}
		})
	}
}

// TestSolveSeededHostileSeedFallsBackCold: whatever garbage the seed
// carries, the answer is the cold one; a seed that covers no EQ row
// cannot be completed by slacks and must reach the audited cold path with
// the fallback on the books.
func TestSolveSeededHostileSeedFallsBackCold(t *testing.T) {
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			m := buildTransportLP(1, 1)
			s := kn.solver()
			garbage := NewBasis(
				[]string{"no_such_var", "x_0_0", "x_0_0", "x_0_0"},
				[]string{"missing_row", "bal", "bal", "cap_0", "cap_0"},
			)
			res, err := s.SolveSeeded(m, garbage, Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireMatchesCold(t, m, res)
			for _, solve := range []func(*Model, *Basis, Options) (*Result, error){s.SolveSeeded, s.SolveWarm} {
				res, err := solve(m, NewBasis([]string{"no_such_var"}, nil), Options{})
				if err != nil {
					t.Fatal(err)
				}
				if out := s.LastOutcome(); out.Path != "cold" || !out.FellBack || out.Sparse || res.Warm {
					t.Fatalf("outcome %+v, want cold fallback", out)
				}
				requireMatchesCold(t, m, res)
			}
		})
	}
}

// TestExportBasisRoundTrip re-imports a solve's own exported basis —
// taken from the cold tableau and from the warm kernel — and expects it
// to verify optimality almost immediately.
func TestExportBasisRoundTrip(t *testing.T) {
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			s := kn.solver()
			m := buildTransportLP(1, 1)
			res, err := s.Solve(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, from := range []string{"cold", "import"} {
				if s.LastOutcome().Path != from {
					t.Fatalf("path %q, want %q", s.LastOutcome().Path, from)
				}
				seed, ok := s.ExportBasis()
				if !ok {
					t.Fatalf("%s: export failed", from)
				}
				if seed.Size() != m.NumConstraints() {
					t.Fatalf("%s: basis size %d, want %d", from, seed.Size(), m.NumConstraints())
				}
				res2, err := s.SolveSeeded(buildTransportLP(1, 1), seed, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if out := s.LastOutcome(); out.Path != "import" || out.Sparse != kn.sparse {
					t.Fatalf("%s: outcome %+v, want import", from, out)
				}
				requireClose(t, "objective", res2.Objective, res.Objective)
				// Re-importing the optimal basis of the same model needs no
				// pivots beyond the crash itself.
				if res2.Iterations > m.NumConstraints() {
					t.Fatalf("%s: round-trip import took %d pivots for %d rows", from, res2.Iterations, m.NumConstraints())
				}
			}
			if _, ok := new(Solver).ExportBasis(); ok {
				t.Fatal("a solver that never solved exported a basis")
			}
		})
	}
}

// TestLadderDriftBound pins the one place the kernels answer the ladder
// differently: after maxHotUses hot re-solves on one factorization the
// dense kernel is dropped and the seed re-imported, while the sparse one
// refactorizes in place and stays hot — and says so in Outcome.Refactors,
// not as a basis crashed into ImportPivots.
func TestLadderDriftBound(t *testing.T) {
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			s := kn.solver()
			if _, err := s.Solve(buildInequalityLP(1), Options{}); err != nil {
				t.Fatal(err)
			}
			seed, _ := s.ExportBasis()
			for i := 0; i <= maxHotUses+2; i++ {
				m := buildInequalityLP(1 + 0.001*float64(i%7))
				res, err := s.SolveWarm(m, seed, Options{})
				if err != nil {
					t.Fatalf("solve %d: %v", i, err)
				}
				want := "hot"
				if i == 0 || (!kn.sparse && i == maxHotUses+1) {
					want = "import"
				}
				out := s.LastOutcome()
				if out.Path != want || out.FellBack || out.AbandonedPivots != 0 {
					t.Fatalf("solve %d: outcome %+v, want %s", i, out, want)
				}
				refactors := 0
				if kn.sparse && i == maxHotUses+1 {
					refactors = 1
				}
				if out.Refactors != refactors || (want == "hot" && out.ImportPivots != 0) {
					t.Fatalf("solve %d: outcome %+v, want %d refactorizations and a hot solve to crash nothing", i, out, refactors)
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
			var seed *Basis
			for slot := 0; slot < 3; slot++ {
				scale := 1 + 0.1*float64(slot)
				if _, err := healthy.SolveWarm(buildTransportLP(scale, 1), seed, Options{}); err != nil {
					t.Fatal(err)
				}
				if out := healthy.LastOutcome(); out.AbandonedPivots != 0 {
					t.Fatalf("slot %d: abandoned pivots %d on a healthy chain", slot, out.AbandonedPivots)
				}
				if b, ok := healthy.ExportBasis(); ok {
					seed = b
				}
			}

			// A one-pivot budget starves the import mid-repair; the burned
			// pivot must be accounted, not lost. The all-surplus seed on
			// the Beale dual guarantees the repair cannot finish in one
			// pivot.
			starved := kn.solver()
			opts := Options{MaxIterations: 1}
			allSurplus := NewBasis(nil, []string{"d1", "d2", "d3", "d4"})
			res, err := starved.SolveWarm(buildBealeDual(), allSurplus, opts)
			out := starved.LastOutcome()
			if !out.FellBack || out.Path != "cold" {
				t.Fatalf("outcome %+v (res %v err %v), want cold fallback", out, res, err)
			}
			if out.AbandonedPivots != 1 || out.ImportPivots != 4 {
				t.Fatalf("outcome %+v: want the one budgeted pivot abandoned and the 4-row crash on its own line", out)
			}
		})
	}
}
