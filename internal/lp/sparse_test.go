package lp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// onDense and onSparse return a Solver pinned, through the package's seam,
// to one warm kernel whatever the model's size.
func onDense() *Solver  { return &Solver{minRows: math.MaxInt} }
func onSparse() *Solver { return &Solver{minRows: 1} }

// buildInequalityLP builds a small profit-style LP with only LE/GE rows —
// no EQ row — so the sparse all-slack crash basis always exists and a
// first solve can take the sparse fresh start. The GE row makes
// the all-slack start primal infeasible, exercising the zero-cost dual
// repair phase.
func buildInequalityLP(scale float64) *Model {
	m := NewModel()
	x := m.AddVariable("x", 3)
	y := m.AddVariable("y", 2)
	z := m.AddVariable("z", 4)
	w := m.AddVariable("w", 1)
	m.AddConstraint("cap_xy", []Term{{x, 1}, {y, 1}}, LE, 10*scale)
	m.AddConstraint("cap_yz", []Term{{y, 1}, {z, 1}}, LE, 8*scale)
	m.AddConstraint("cap_zw", []Term{{z, 1}, {w, 2}}, LE, 6*scale)
	m.AddConstraint("floor_xz", []Term{{x, 1}, {z, 1}}, GE, 2*scale)
	m.AddConstraint("floor_w", []Term{{w, 1}}, GE, 0.5*scale)
	return m
}

func requireClose(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("%s: got %g, want %g", what, got, want)
	}
}

// TestSparseEmptySeedImportsOnInequalityLP verifies the all-slack crash:
// with no EQ rows a first sparse solve takes the fresh start directly — no
// dense tableau is ever built for the LP.
func TestSparseEmptySeedImportsOnInequalityLP(t *testing.T) {
	s := onSparse()
	m := buildInequalityLP(1)
	res, err := s.SolveWarm(m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := s.LastOutcome()
	if out.Path != "fresh" || !out.Sparse || out.FellBack {
		t.Fatalf("outcome %+v, want a sparse fresh start without fallback", out)
	}
	cold, err := m.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, "objective", res.Objective, cold.Objective)
	for i := range cold.Duals {
		requireClose(t, "dual", res.Duals[i], cold.Duals[i])
	}
	// And the follow-up slot goes hot on the retained factors.
	m2 := buildInequalityLP(1.1)
	res2, err := s.SolveWarm(m2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := s.LastOutcome(); out.Path != "hot" || !out.Sparse {
		t.Fatalf("slot 1 outcome %+v, want sparse hot", out)
	}
	cold2, err := m2.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, "objective", res2.Objective, cold2.Objective)
}

// TestKernelRuleIsRowCount pins the selection rule: a plain Solver runs a
// chain below sparseMinRows rows to the bit as one pinned to the dense
// kernel does, and a chain from sparseMinRows rows up as one pinned to the
// LU kernel does — results and outcomes — and the
// deprecated Options.Sparse moves neither.
func TestKernelRuleIsRowCount(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
		pinned     func() *Solver
	}{
		{"below", sparseMinRows - 1, 2 * sparseMinRows, onDense},
		{"at", sparseMinRows, 2 * sparseMinRows, onSparse},
	} {
		for _, flag := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/Sparse=%v", tc.name, flag), func(t *testing.T) {
				var plain Solver
				pinned := tc.pinned()
				for slot := 0; slot < 5; slot++ {
					m := func() *Model { return driftRHS(packingLP(81, tc.rows, tc.cols), 0.03*float64(slot)) }
					want := snapshot(t, pinned, true, m(), Options{})
					requireIdentical(t, fmt.Sprintf("slot %d", slot), snapshot(t, &plain, true, m(), Options{Sparse: flag}), want)
					if want.Out.Sparse != (tc.rows >= sparseMinRows) || want.Out.FellBack {
						t.Fatalf("slot %d: outcome %+v on a %d-row LP", slot, want.Out, tc.rows)
					}
				}
			})
		}
	}
}

// TestFailedRepairThenLargerStart: a start-over whose repair fails leaves
// its eta file indexed (only priceIn drops the index), and the kernel's
// arena goes on to the next LP. A start on a larger LP after it indexes
// the larger dimension, and solves as on a solver that ran nothing before.
func TestFailedRepairThenLargerStart(t *testing.T) {
	bad := dispatchShaped(10, 40, 3, 1).m
	var phis []Term
	for v, name := range bad.names {
		if strings.HasPrefix(name, "phi_") {
			phis = append(phis, Term{Var: v, Coef: 1})
		}
	}
	bad.AddConstraint("over_share", phis, GE, 41) // share_l caps each of the 40 centers at 1
	big := dispatchShaped(20, 40, 3, 1).m
	var s Solver
	res, err := s.SolveFresh(bad, Options{})
	if err == nil && res.Status != Infeasible {
		t.Fatalf("the overcommitted LP solved: %v", res.Status)
	}
	if out := s.LastOutcome(); out.ImportPivots != len(bad.rows) || out.AbandonedPivots == 0 {
		t.Fatalf("outcome %+v, want a %d-row start abandoned mid-repair", out, len(bad.rows))
	}
	got, err := s.SolveFresh(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := s.LastOutcome(); out.Path != "fresh" || !out.Sparse {
		t.Fatalf("outcome %+v, want a sparse fresh start", out)
	}
	want, err := new(Solver).SolveFresh(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the failed repair the start gives %+v, a new solver %+v", got, want)
	}
}

// TestUnpricedRefactorizeIsTheRepriced holds what a start-over skips: its
// repair runs under a crash's zero costs, so a refactorization reprices
// nothing until priceIn. On a fresh start whose repair fills the eta file,
// the repair leaves the reduced costs and multipliers a reprice under zero
// costs gives — every one zero — and after priceIn d, y and optimal, then
// the finish's pivots and answer, are bit for bit those of the same start
// with a reprice at every refactorization (its kernel marked priced from
// the crash on).
func TestUnpricedRefactorizeIsTheRepriced(t *testing.T) {
	m := dispatchShaped(10, 20, 3, 1).m
	type run struct {
		d, y, x, duals    []float64
		optimal           bool
		refactors, repair int
		pivots            int
	}
	start := func(repriced bool) run {
		k := newSparseSolveIn(m, Options{}, nil)
		if !k.crash(nil) {
			t.Fatal("no all-slack basis")
		}
		k.priced = repriced
		if st := k.dualIterate(math.Inf(-1)); st != Optimal {
			t.Fatalf("repair: %v", st)
		}
		r := run{refactors: k.refactors, repair: k.iters}
		if r.refactors == 0 {
			t.Fatalf("the repair's %d pivots did not fill the eta file", k.iters)
		}
		if !repriced {
			for j, d := range k.d {
				if math.Float64bits(d) != 0 {
					t.Fatalf("the unpriced repair left d[%d] = %g", j, d)
				}
			}
			for i, y := range k.y.Val {
				if math.Float64bits(y) != 0 {
					t.Fatalf("the unpriced repair left y[%d] = %g", i, y)
				}
			}
		}
		k.priceIn()
		r.d, r.y, r.optimal = slices.Clone(k.d), slices.Clone(k.y.Val), k.optimal
		if st := k.primalIterate(); st != Optimal {
			t.Fatalf("finish: %v", st)
		}
		r.x, r.duals, r.pivots = k.extract(nil), k.duals(nil), k.iters
		return r
	}
	got, want := start(false), start(true)
	t.Logf("repair: %d pivots, %d refactorizations; %d pivots in all", got.repair, got.refactors, got.pivots)
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []float64
	}{{"d", got.d, want.d}, {"y", got.y, want.y}, {"x", got.x, want.x}, {"duals", got.duals, want.duals}} {
		if !slices.Equal(bits(c.got), bits(c.want)) {
			t.Errorf("%s differs from the repriced start's", c.what)
		}
	}
	if got.optimal != want.optimal || got.refactors != want.refactors || got.repair != want.repair || got.pivots != want.pivots {
		t.Errorf("unpriced %+v, repriced %+v", got, want)
	}
}
