package lp

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// fuzzLP decodes a small LP from fuzz bytes: up to 6 variables and 6 rows
// of mixed ≤/≥/= sense, small integer costs, coefficients (a third of them
// zero) and right-hand sides, negative ones included — so ties, redundant
// and empty rows, infeasible and unbounded programs all come up. drift
// moves only the costs and right-hand sides, by steps that depend on the
// index alone: fuzzLP(…, 0) and fuzzLP(…, 1) share their structure.
func fuzzLP(nv, nr uint8, data []byte, drift float64) *Model {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	m := NewModel()
	m.SetMinimize(next()%4 == 0)
	vars := 1 + int(nv)%6
	for j := 0; j < vars; j++ {
		m.AddVariable(fmt.Sprintf("v%d", j), float64(next()%9-3)+drift*0.25*float64(j%3))
	}
	for i := 0; i < 1+int(nr)%6; i++ {
		sense, rhs := Sense(next()%3), float64(next()%13-2)+drift*0.5*float64(i%2)
		var terms []Term
		for j := 0; j < vars; j++ {
			if b := next(); b%3 != 0 {
				terms = append(terms, Term{Var: j, Coef: float64(b%9 - 4)})
			}
		}
		m.AddConstraint(fmt.Sprintf("r%d", i), terms, sense, rhs)
	}
	return m
}

// requireCertified checks an Optimal answer against the model alone: x is
// primal feasible, the duals are dual feasible — signed by row sense, no
// column pricing in — and the two are complementary slack, row by row and
// column by column. Together that is optimality, whatever path found it.
func requireCertified(t *testing.T, what string, m *Model, res *Result) {
	t.Helper()
	scale := 1.0
	for i := range m.rows {
		scale = math.Max(scale, math.Abs(m.rows[i].rhs))
	}
	for _, v := range res.X {
		scale = math.Max(scale, math.Abs(v))
	}
	for _, y := range res.Duals {
		scale = math.Max(scale, math.Abs(y))
	}
	tol := 1e-7 * scale * scale
	if err := m.CheckFeasible(res.X, tol); err != nil {
		t.Fatalf("%s: not primal feasible: %v", what, err)
	}
	dir := 1.0
	if m.minimize {
		dir = -1
	}
	reduced := append([]float64(nil), m.obj...)
	for i := range m.rows {
		row, y := &m.rows[i], res.Duals[i]
		if (row.sense == LE && dir*y < -tol) || (row.sense == GE && dir*y > tol) {
			t.Fatalf("%s: row %s (%v) has dual %g, the wrong sign", what, row.name, row.sense, y)
		}
		if slack := row.rhs - m.RowActivity(i, res.X); math.Abs(y*slack) > tol {
			t.Fatalf("%s: row %s has slack %g and dual %g", what, row.name, slack, y)
		}
		for _, term := range row.terms {
			reduced[term.Var] -= y * term.Coef
		}
	}
	for j, d := range reduced {
		if dir*d > tol {
			t.Fatalf("%s: variable %s prices in at reduced cost %g", what, m.names[j], d)
		}
		if math.Abs(d*res.X[j]) > tol {
			t.Fatalf("%s: variable %s = %g at reduced cost %g", what, m.names[j], res.X[j], d)
		}
	}
}

// FuzzKernelDifferential solves one generated LP on each kernel through
// every entry the ladder has — a fresh start, the warm chain's first solve
// and a hot re-solve of the same model after its costs and right-hand sides
// drifted, and a trial from the checkpoint of that re-solve back to the
// first numbers — and requires of each answer the dense cold solve's
// verdict, its objective to 1e-7 of its scale and, at Optimal, a
// certificate against the model itself, never against another path's
// vector. On the dense kernel the fresh start is the cold simplex and the
// chain runs from its optimum handed over; a trial that does not answer
// (nil) steps down the ladder and is no verdict.
func FuzzKernelDifferential(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{1, 6, 5, 0, 6, 5, 5, 0, 8, 5, 7})                                        // max 3x+2y, two ≤ rows
	f.Add(uint8(1), uint8(2), []byte{0, 4, 5, 1, 3, 5, 5, 1, 2, 5, 0, 2, 6, 5, 5})                            // min with ≥ and = rows
	f.Add(uint8(2), uint8(2), []byte{1, 4, 4, 4, 0, 2, 5, 5, 5, 0, 2, 5, 5, 5, 0, 2, 5, 5, 5})                // degenerate: one row three times
	f.Add(uint8(0), uint8(1), []byte{1, 4, 0, 3, 5, 1, 7, 5})                                                 // infeasible: x ≤ 1, x ≥ 5
	f.Add(uint8(1), uint8(0), []byte{1, 4, 4, 1, 2, 5, 4})                                                    // unbounded: x − y ≥ 0
	f.Add(uint8(2), uint8(3), []byte{1, 8, 7, 6, 2, 8, 5, 5, 5, 0, 9, 1, 5, 0, 2, 6, 0, 5, 5, 1, 0, 5, 2, 0}) // =, ≤, =, ≥ with a negative rhs
	f.Add(uint8(5), uint8(5), []byte{})                                                                       // infeasible: empty rows ≤ −2
	f.Fuzz(func(t *testing.T, nv, nr uint8, data []byte) {
		if len(data) > 64 {
			t.Skip()
		}
		m, drifted := fuzzLP(nv, nr, data, 0), fuzzLP(nv, nr, data, 1)
		type verdict struct {
			res *Result
			err error
		}
		cold := map[*Model]verdict{}
		for _, lp := range []*Model{m, drifted} {
			res, err := lp.SolveOpts(Options{})
			if errors.Is(err, ErrIterationLimit) || errors.Is(err, ErrNumericBreakdown) {
				t.Skip("no verdict to compare")
			}
			cold[lp] = verdict{res, err}
		}
		agree := func(what string, lp *Model, res *Result, err error) {
			t.Helper()
			want := cold[lp]
			if !errors.Is(err, want.err) || (err == nil) != (want.err == nil) {
				t.Fatalf("%s: verdict %v, dense cold says %v", what, err, want.err)
			}
			if err != nil {
				return
			}
			if math.Abs(res.Objective-want.res.Objective) > 1e-7*(1+math.Abs(want.res.Objective)) {
				t.Fatalf("%s: objective %g, dense cold says %g", what, res.Objective, want.res.Objective)
			}
			requireCertified(t, what, lp, res)
		}
		for _, kn := range ladderKernels {
			s, held := kn.solver(), fuzzLP(nv, nr, data, 0)
			res, err := s.SolveFresh(m, Options{})
			agree(kn.name+" fresh "+s.LastOutcome().Path, m, res, err)
			res, err = s.SolveWarm(held, nil, Options{})
			agree(kn.name+" warm "+s.LastOutcome().Path, m, res, err)
			res, err = s.SolveWarm(copyNumbers(held, drifted), nil, Options{})
			agree(kn.name+" drifted "+s.LastOutcome().Path, drifted, res, err)
			if err != nil || !s.Checkpoint() {
				continue
			}
			if res := s.Trial(copyNumbers(held, m), Options{}, math.Inf(-1)); res != nil {
				agree(kn.name+" trial", m, res, nil)
			}
		}
	})
}
