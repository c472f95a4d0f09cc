package lp

import (
	"math"
	"reflect"
	"testing"
)

// sparseTestOpts forces the sparse revised simplex on for any model size.
func sparseTestOpts() Options { return Options{Sparse: true, SparseMinRows: 1} }

// buildInequalityLP builds a small profit-style LP with only LE/GE rows —
// no EQ row — so the sparse all-slack crash basis always exists and even a
// seedless first solve can take the sparse import path. The GE row makes
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
// with no EQ rows a seedless sparse solve takes the import path directly
// — no dense tableau is ever built for the LP.
func TestSparseEmptySeedImportsOnInequalityLP(t *testing.T) {
	var s Solver
	m := buildInequalityLP(1)
	res, err := s.SolveWarm(m, nil, sparseTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := s.LastOutcome()
	if out.Path != "import" || !out.Sparse || out.FellBack {
		t.Fatalf("outcome %+v, want sparse import without fallback", out)
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
	res2, err := s.SolveWarm(m2, nil, sparseTestOpts())
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

// TestSparseOffBitIdentical verifies the knob's contract: with Sparse off,
// or on but below the row threshold, a SolveWarm chain is bit-identical to
// the plain dense chain.
func TestSparseOffBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"off", Options{}},
		{"below-threshold", Options{Sparse: true, SparseMinRows: 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dense, other Solver
			var seedD, seedO *Basis
			for slot := 0; slot < 6; slot++ {
				scale := 1 + 0.07*float64(slot)
				wantRes, err1 := dense.SolveWarm(buildTransportLP(scale, 1), seedD, Options{})
				gotRes, err2 := other.SolveWarm(buildTransportLP(scale, 1), seedO, tc.opts)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("slot %d: errs %v vs %v", slot, err1, err2)
				}
				if !reflect.DeepEqual(wantRes, gotRes) {
					t.Fatalf("slot %d: results differ:\ndense %+v\nother %+v", slot, wantRes, gotRes)
				}
				if dOut, oOut := dense.LastOutcome(), other.LastOutcome(); !reflect.DeepEqual(dOut, oOut) || oOut.Sparse {
					t.Fatalf("slot %d: outcomes differ, or a sparse solve on a dense-only chain: %+v vs %+v", slot, dOut, oOut)
				}
				if b, ok := dense.ExportBasis(); ok {
					seedD = b
				}
				if b, ok := other.ExportBasis(); ok {
					seedO = b
				}
			}
		})
	}
}
