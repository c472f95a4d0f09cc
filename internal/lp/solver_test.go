package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// buildTransportLP builds a small dispatch-shaped LP: route flows from
// sources to sinks under capacity (LE), demand (GE) and a balance (EQ)
// row, maximizing profit. rhsScale and priceScale perturb the rhs vector
// and objective without touching the constraint matrix, mimicking the
// planner's slot-to-slot drift.
func buildTransportLP(rhsScale, priceScale float64) *Model {
	m := NewModel()
	var x [2][3]int
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			price := priceScale * float64(10+3*i+2*j)
			x[i][j] = m.AddVariable(fmt.Sprintf("x_%d_%d", i, j), price)
		}
	}
	for i := 0; i < 2; i++ {
		terms := make([]Term, 0, 3)
		for j := 0; j < 3; j++ {
			terms = append(terms, Term{Var: x[i][j], Coef: 1})
		}
		m.AddConstraint(fmt.Sprintf("cap_%d", i), terms, LE, rhsScale*float64(40+10*i))
	}
	for j := 0; j < 3; j++ {
		terms := []Term{{Var: x[0][j], Coef: 1}, {Var: x[1][j], Coef: 1}}
		m.AddConstraint(fmt.Sprintf("dem_%d", j), terms, GE, rhsScale*float64(5+2*j))
	}
	// Balance: source 0 ships exactly twice source 1's first-lane flow.
	m.AddConstraint("bal",
		[]Term{{Var: x[0][0], Coef: 1}, {Var: x[1][0], Coef: -2}}, EQ, 0)
	return m
}

func TestSolverColdMatchesSolveOpts(t *testing.T) {
	var s Solver
	for trial := 0; trial < 4; trial++ {
		m := buildTransportLP(1+0.1*float64(trial), 1+0.05*float64(trial))
		want, wantErr := m.SolveOpts(Options{})
		got, gotErr := s.Solve(m, Options{})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: err %v vs %v", trial, gotErr, wantErr)
		}
		got.Warm = false // Solve never sets it; normalize for DeepEqual
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Solver.Solve diverged from SolveOpts:\n%+v\n%+v", trial, got, want)
		}
		if s.LastOutcome().Path != "cold" {
			t.Fatalf("trial %d: path %q, want cold", trial, s.LastOutcome().Path)
		}
	}
}

// TestWarmEquivalenceProperty is the randomized three-way equivalence
// suite: over random dispatch-shaped LP sequences with perturbed rhs and
// costs, the dense warm chain and the sparse revised-simplex chain must
// both match the dense cold solve's objective and duals within 1e-9
// (relative), with zero audit failures. Runs under -race via
// `make verify-lp`.
func TestWarmEquivalenceProperty(t *testing.T) {
	for seedIdx, rngSeed := range []int64{1, 7, 42, 1337} {
		rng := rand.New(rand.NewSource(rngSeed))
		sDense, sSparse := onDense(), onSparse()
		sawSparse := false
		for slot := 0; slot < 12; slot++ {
			rhsScale := 0.8 + 0.4*rng.Float64()
			priceScale := 0.9 + 0.2*rng.Float64()
			m := buildTransportLP(rhsScale, priceScale)
			cold, coldErr := m.SolveOpts(Options{})
			check := func(name string, s *Solver, res *Result, err error) {
				t.Helper()
				if (err == nil) != (coldErr == nil) {
					t.Fatalf("rng %d slot %d: %s err %v, cold err %v", seedIdx, slot, name, err, coldErr)
				}
				if err != nil {
					return
				}
				if math.Abs(res.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
					t.Fatalf("rng %d slot %d (%s %s): %g vs cold %g",
						seedIdx, slot, name, s.LastOutcome().Path, res.Objective, cold.Objective)
				}
				for i := range cold.Duals {
					if math.Abs(res.Duals[i]-cold.Duals[i]) > 1e-9*(1+math.Abs(cold.Duals[i])) {
						t.Fatalf("rng %d slot %d: %s dual %d %g vs cold %g",
							seedIdx, slot, name, i, res.Duals[i], cold.Duals[i])
					}
				}
				if err := m.CheckFeasible(res.X, 1e-6); err != nil {
					t.Fatalf("rng %d slot %d: %s solution infeasible: %v", seedIdx, slot, name, err)
				}
			}
			warm, err := sDense.SolveWarm(m, nil, Options{})
			check("dense-warm", sDense, warm, err)
			sp, spErr := sSparse.SolveWarm(m, nil, Options{})
			check("sparse", sSparse, sp, spErr)
			if sSparse.LastOutcome().Sparse {
				sawSparse = true
			}
		}
		if !sawSparse {
			t.Fatalf("rng %d: the sparse chain never took a sparse path", seedIdx)
		}
	}
}

// TestDualIterateRepairsRHS exercises the dual simplex in isolation: an
// optimal warm tableau whose rhs is then tightened must be repaired by
// dual pivots alone, without refactorization or artificials.
func TestDualIterateRepairsRHS(t *testing.T) {
	var s Solver
	if _, err := s.SolveWarm(buildTransportLP(1, 1), nil, Options{}); err != nil {
		t.Fatal(err) // the cold optimum arms a warm tableau inside the solver
	}
	// Tighten capacities by 20%: the retained basis becomes primal
	// infeasible and only the dual phase can repair it.
	m1 := buildTransportLP(0.8, 1)
	res, err := s.SolveWarm(m1, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := s.LastOutcome(); out.Path != "hot" {
		t.Fatalf("outcome %+v, want a hot re-solve", out)
	}
	cold, err := m1.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
		t.Fatalf("objective %g vs cold %g", res.Objective, cold.Objective)
	}
}

// TestIterationLimitNotConflated is the regression for the exhaustion
// audit: running out of pivot budget must surface as ErrIterationLimit —
// never as a fake Infeasible or Unbounded certificate — so the resilient
// chain escalates instead of silently shedding commodities.
func TestIterationLimitNotConflated(t *testing.T) {
	// A GE model forces phase 1; MaxIterations=1 exhausts it mid-phase.
	m := buildTransportLP(1, 1)
	res, err := m.SolveOpts(Options{MaxIterations: 1})
	if err != ErrIterationLimit {
		t.Fatalf("err = %v, want ErrIterationLimit", err)
	}
	if res.Status != IterationLimit {
		t.Fatalf("status = %v, want IterationLimit", res.Status)
	}
}

// TestPhase1NumericalBreakdownIsIterationLimit pins the phase-1 status
// mapping: the phase-1 objective is bounded below by zero, so a "no
// leaving row" exit there is numerical breakdown on a degenerate tableau,
// not an unboundedness certificate. With a coarse tolerance every
// eligible pivot element (0.4) sits below tol while the priced-out
// reduced cost (-0.8) stays above it, reproducing the breakdown exactly;
// the solver must answer ErrIterationLimit, not ErrUnbounded — an
// Unbounded (or Infeasible) verdict here would make internal/resilient
// drop commodities off a false certificate.
func TestPhase1NumericalBreakdownIsIterationLimit(t *testing.T) {
	m := NewModel()
	x := m.AddVariable("x", 0)
	m.AddConstraint("r0", []Term{{Var: x, Coef: 0.4}}, GE, 1)
	m.AddConstraint("r1", []Term{{Var: x, Coef: 0.4}}, GE, 1)
	res, err := m.SolveOpts(Options{Tol: 0.6})
	if err != ErrIterationLimit {
		t.Fatalf("err = %v (status %v), want ErrIterationLimit", err, res.Status)
	}
	if res.Status != IterationLimit {
		t.Fatalf("status = %v, want IterationLimit", res.Status)
	}
}

// TestGenuineCertificatesSurvive makes sure the exhaustion audit did not
// weaken real certificates.
func TestGenuineCertificatesSurvive(t *testing.T) {
	inf := NewModel()
	x := inf.AddVariable("x", 1)
	inf.AddConstraint("lo", []Term{{Var: x, Coef: 1}}, GE, 2)
	inf.AddConstraint("hi", []Term{{Var: x, Coef: 1}}, LE, 1)
	if _, err := inf.SolveOpts(Options{}); err != ErrInfeasible {
		t.Fatalf("infeasible model: err = %v", err)
	}
	unb := NewModel()
	y := unb.AddVariable("y", 1)
	unb.AddConstraint("lo", []Term{{Var: y, Coef: 1}}, GE, 1)
	if _, err := unb.SolveOpts(Options{}); err != ErrUnbounded {
		t.Fatalf("unbounded model: err = %v", err)
	}
}
