package core

import (
	"math"
	"math/rand"
	"testing"

	"profitlb/internal/lp"
	"profitlb/internal/nlp"
)

// TestDispatchLPCrossValidatedWithNLP certifies the simplex optimum of the
// actual dispatch LP with a structurally different method: the
// projected-gradient penalty solver is warm-started from the simplex
// solution and must fail to improve it beyond tolerance, and its own
// cold-start ascent must never exceed the simplex value. This is the
// reproduction's substitute for checking the solver against CPLEX.
func TestDispatchLPCrossValidatedWithNLP(t *testing.T) {
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

		// First-order optimality: ascent from x* must not find profit.
		warm, err := nlp.SolveLP(d.model, nlp.Options{X0: exact.X})
		if err != nil && err != nlp.ErrNotConverged {
			t.Fatalf("trial %d: warm nlp: %v", trial, err)
		}
		if warm.Objective > exact.Objective*(1+1e-3)+1e-6 {
			t.Fatalf("trial %d: penalty ascent improved the simplex optimum: %g -> %g",
				trial, exact.Objective, warm.Objective)
		}

		// Cold start: a feasible-by-construction ascent stays below x*.
		cold, err := nlp.SolveLP(d.model, nlp.Options{})
		if err != nil && err != nlp.ErrNotConverged {
			t.Fatalf("trial %d: cold nlp: %v", trial, err)
		}
		if cold.Objective > exact.Objective*(1+5e-3)+1e-6 {
			t.Fatalf("trial %d: cold penalty %g exceeds simplex optimum %g",
				trial, cold.Objective, exact.Objective)
		}
		if math.IsNaN(cold.Objective) || math.IsNaN(warm.Objective) {
			t.Fatalf("trial %d: NaN objective", trial)
		}
	}
	if valid < 10 {
		t.Fatalf("only %d valid trials", valid)
	}
}
