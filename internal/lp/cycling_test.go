package lp

import (
	"math"
	"testing"
)

// preFixDualIterate replicates the dual simplex loop exactly as it stood
// before the anti-cycling fix: most-negative leaving row, min-ratio
// entering column, no tie-breaking, no stall detection. Kept here as the
// executable "before" half of the cycling regression test.
func preFixDualIterate(t *tableau) Status {
	tol := t.opts.Tol
	rhs := t.total
	for {
		if t.iters >= t.opts.MaxIterations {
			return IterationLimit
		}
		leave, minVal := -1, -tol
		for r := 0; r < t.a.Rows; r++ {
			if v := t.a.At(r, rhs); v < minVal {
				leave, minVal = r, v
			}
		}
		if leave < 0 {
			return Optimal
		}
		row := t.a.Row(leave)
		enter, bestRatio := -1, math.Inf(1)
		for c := 0; c < t.colLimit; c++ {
			a := row[c]
			if a >= -tol {
				continue
			}
			if ratio := t.z[c] / -a; ratio < bestRatio {
				enter, bestRatio = c, ratio
			}
		}
		if enter < 0 {
			return Infeasible
		}
		t.pivot(leave, enter)
		t.iters++
	}
}

// buildBealeDual is the LP dual of Beale's classic cycling example
// (min −0.75x₁ + 150x₂ − 0.02x₃ + 6x₄ over three ≤-rows). Started from
// the all-surplus basis — dual feasible, primal infeasible, massively
// degenerate — it drives the dual simplex through the mirror image of
// Beale's primal cycle.
func buildBealeDual() *Model {
	m := NewModel()
	m.SetMinimize(true)
	u1 := m.AddVariable("u1", 0)
	u2 := m.AddVariable("u2", 0)
	u3 := m.AddVariable("u3", 1)
	m.AddConstraint("d1", []Term{{u1, 0.25}, {u2, 0.5}}, GE, 0.75)
	m.AddConstraint("d2", []Term{{u1, -60}, {u2, -90}}, GE, -150)
	m.AddConstraint("d3", []Term{{u1, -0.04}, {u2, -0.02}, {u3, 1}}, GE, 0.02)
	m.AddConstraint("d4", []Term{{u1, 9}, {u2, 3}}, GE, -6)
	return m
}

// bealeDualRepairState builds the exact state dualIterate sees on the
// warm paths: a warm tableau with the all-surplus basis crashed in and
// the true costs priced out (dual feasible), with negative basic values
// awaiting repair.
func bealeDualRepairState(t *testing.T) *tableau {
	t.Helper()
	tb := newWarmTableauIn(buildBealeDual(), Options{}, nil)
	if !tb.importBasis(&Basis{}) {
		t.Fatal("all-surplus import failed")
	}
	tb.setPhase2Z()
	tb.opts.MaxIterations = 1000
	return tb
}

// TestDualSimplexCyclingRegression is the regression test for the dual
// simplex anti-cycling fix. Before the fix, dualIterate had no Bland
// switch: on the dual of Beale's cycling LP it loops degenerate pivots
// forever and burns its whole iteration budget. The fixed rule detects
// the stall and finishes Optimal with the same starting state.
func TestDualSimplexCyclingRegression(t *testing.T) {
	old := bealeDualRepairState(t)
	if st := preFixDualIterate(old); st != IterationLimit {
		t.Fatalf("pre-fix rule no longer cycles (status %v after %d iters); "+
			"the regression instance needs rebuilding", st, old.iters)
	}

	tb := bealeDualRepairState(t)
	if st := tb.dualIterate(); st != Optimal {
		t.Fatalf("fixed dual simplex: status %v after %d iters", st, tb.iters)
	}
	if tb.iters >= old.iters {
		t.Fatalf("fixed rule used %d iters, no better than the cycling budget %d", tb.iters, old.iters)
	}
	// Finish the solve and verify the answer against the cold two-phase
	// path, which never enters dualIterate.
	if st := tb.iterate(); st != Optimal {
		t.Fatalf("primal finish: status %v", st)
	}
	res, err := tb.result(Optimal)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := buildBealeDual().SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, "objective", res.Objective, cold.Objective)
}

// TestSparseDualSimplexAntiCycling runs the same degenerate instance
// through the sparse revised dual simplex: the all-surplus crash basis is
// exactly what the seedless sparse import builds, so the solve exercises
// the sparse stall→Bland switch end to end.
func TestSparseDualSimplexAntiCycling(t *testing.T) {
	s := onSparse()
	m := buildBealeDual()
	res, err := s.SolveWarm(m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := s.LastOutcome(); out.Path != "import" || !out.Sparse {
		t.Fatalf("outcome %+v, want sparse import", out)
	}
	cold, err := m.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireClose(t, "objective", res.Objective, cold.Objective)
}
