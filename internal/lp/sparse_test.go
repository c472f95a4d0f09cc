package lp

import (
	"fmt"
	"math"
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
