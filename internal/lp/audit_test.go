package lp

import (
	"errors"
	"testing"
)

// TestColdAuditSurfacesNumericBreakdown is the regression test for the
// silent-negative-solution leak: extract's clamp only fixes values in
// (−10·Tol, 0), so a tableau whose basic values drifted further negative
// used to pass its answer out of the cold path unaudited. The cold
// Optimal claim now runs the same rhs-scaled CheckFeasible gate as the
// warm paths and surfaces NumericBreakdown instead.
func TestColdAuditSurfacesNumericBreakdown(t *testing.T) {
	build := func() *tableau {
		m := NewModel()
		x := m.AddVariable("x", 1)
		m.AddConstraint("cap", []Term{{x, 1}}, LE, 5)
		tb := newTableau(m, Options{})
		if st := tb.run(); st != Optimal {
			t.Fatalf("setup solve: %v", st)
		}
		return tb
	}

	// Healthy tableau: the audit passes and the result is Optimal.
	tb := build()
	res, err := tb.result(Optimal, new(Result))
	if err != nil || res.Status != Optimal {
		t.Fatalf("healthy path: status %v err %v", res.Status, err)
	}

	// Corrupt the basic value of x beyond the clamp window (−10·Tol) but
	// exactly in the range the old code leaked silently.
	tb = build()
	for r, b := range tb.basis {
		if b == 0 { // structural x basic
			tb.a.Set(r, tb.total, -1e-6)
		}
	}
	res, err = tb.result(Optimal, new(Result))
	if !errors.Is(err, ErrNumericBreakdown) {
		t.Fatalf("corrupted tableau: err %v, want ErrNumericBreakdown", err)
	}
	if res.Status != NumericBreakdown {
		t.Fatalf("corrupted tableau: status %v, want NumericBreakdown", res.Status)
	}
	if res.X != nil || res.Duals != nil {
		t.Fatalf("breakdown result must not carry a solution: %+v", res)
	}
}
