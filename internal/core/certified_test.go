package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"profitlb/internal/lp"
)

// certify checks an Optimal answer against the model alone, through its
// exported accessors: x is primal feasible, the duals are signed by row
// sense, and the two are complementary slack row by row and column by
// column — no column prices in, none with a reduced cost carries flow.
// Together that is optimality, exactly, whatever found it. Each residual is
// held to 1e-9 of its own scale — the primal one (rates, budgets), the dual
// one (costs, shadow prices) or their product; lp.requireCertified's single
// 1e-7·scale² would let a share row's dual of 10⁴ excuse an error of 10 in
// a flow's earnings.
func certify(m *lp.Model, res *lp.Result) error {
	primal, dual := 1.0, 1.0
	for _, v := range res.X {
		primal = math.Max(primal, math.Abs(v))
	}
	for i := 0; i < m.NumConstraints(); i++ {
		_, _, rhs := m.RowSpec(i)
		primal = math.Max(primal, math.Abs(rhs))
	}
	reduced := m.ObjectiveCoefs()
	for _, c := range reduced {
		dual = math.Max(dual, math.Abs(c))
	}
	for _, y := range res.Duals {
		dual = math.Max(dual, math.Abs(y))
	}
	const rel = 1e-9
	if err := m.CheckFeasible(res.X, rel*primal); err != nil {
		return fmt.Errorf("not primal feasible: %w", err)
	}
	dir := 1.0
	if m.IsMinimize() {
		dir = -1
	}
	for i, y := range res.Duals {
		terms, sense, rhs := m.RowSpec(i)
		if (sense == lp.LE && dir*y < -rel*dual) || (sense == lp.GE && dir*y > rel*dual) {
			return fmt.Errorf("row %s (%v) has dual %g, the wrong sign", m.RowName(i), sense, y)
		}
		if slack := rhs - m.RowActivity(i, res.X); math.Abs(y*slack) > rel*primal*dual {
			return fmt.Errorf("row %s has slack %g and dual %g", m.RowName(i), slack, y)
		}
		for _, term := range terms {
			reduced[term.Var] -= y * term.Coef
		}
	}
	for j, d := range reduced {
		if dir*d > rel*dual {
			return fmt.Errorf("variable %s prices in at reduced cost %g", m.VariableName(j), d)
		}
		if math.Abs(d*res.X[j]) > rel*primal*dual {
			return fmt.Errorf("variable %s = %g at reduced cost %g", m.VariableName(j), res.X[j], d)
		}
	}
	return nil
}

// TestDispatchLPCertified holds the simplex optimum of the actual dispatch
// LP, on ten seeded random systems, to an exact duality certificate. This
// is the reproduction's substitute for checking the solver against CPLEX.
// The certificate is sharp where the penalty ascent it replaced (held to
// 1e-3) was not: the same answer stops certifying once the objective
// coefficient of its largest flow is moved by one part in 10⁴.
func TestDispatchLPCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	valid := 0
	for trial := 0; valid < 10 && trial < 60; trial++ {
		_, in := randomSystem(rng)
		comms := capReservations(in, admissibleCommodities(in, nil))
		if len(comms) == 0 {
			continue
		}
		d := buildDispatchLP(in, comms, nil, false, nil)
		exact, err := d.model.SolveOpts(lp.Options{})
		if err != nil {
			continue // random reservation overloads are legitimate
		}
		valid++
		if err := certify(d.model, exact); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c, top := d.model.ObjectiveCoefs(), 0
		for j, v := range exact.X {
			if math.Abs(c[j]*v) > math.Abs(c[top]*exact.X[top]) {
				top = j
			}
		}
		if c[top]*exact.X[top] != 0 {
			d.model.SetObjective(top, c[top]*(1+1e-4))
			if certify(d.model, exact) == nil {
				t.Fatalf("trial %d: the optimum still certifies with %s's coefficient moved 1e-4", trial, d.model.VariableName(top))
			}
		}
	}
	if valid < 10 {
		t.Fatalf("only %d valid trials", valid)
	}
}
