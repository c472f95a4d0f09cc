package lp

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzWarmBasisImport drives hostile name-keyed bases through the warm
// import path: whatever garbage the basis carries (unknown names,
// duplicates, truncated or oversized sets), SolveSeeded must return the
// same verdict as the cold solve and, at Optimal, an objective within
// 1e-9 and a solution the model itself verifies — and a Solver whose
// workspaces have just held other problems (see dirty) must return that
// answer to the bit, by the same path and pivots, with the seed resolved
// to the columns the map-based reference names. Names are supplied as
// comma-separated lists so the fuzzer can splice real and fake entries.
func FuzzWarmBasisImport(f *testing.F) {
	f.Add("x_0_0,x_1_2", "cap_0,dem_1", 1.0, 1.0)
	f.Add("", "", 0.5, 2.0)
	f.Add("x_0_0,x_0_0,x_0_0,x_0_0,x_0_0,x_0_0,x_0_0", "bal,bal,bal", 1.0, 1.0)
	f.Add("nope,x_9_9,x_0_1", "cap_0,cap_0,cap_1,dem_0,dem_1,dem_2,bal", 1.2, 0.8)
	f.Add("x_0_0,x_0_1,x_0_2,x_1_0,x_1_1,x_1_2", "cap_0,cap_1,dem_0,dem_1,dem_2,bal", 1.0, 1.0)
	used := dirty(f)
	f.Fuzz(func(t *testing.T, vars string, slacks string, rhsScale float64, priceScale float64) {
		if !(rhsScale > 0.01 && rhsScale < 100) || !(priceScale > 0.01 && priceScale < 100) {
			t.Skip()
		}
		split := func(s string) []string {
			if s == "" {
				return nil
			}
			parts := strings.Split(s, ",")
			if len(parts) > 64 {
				parts = parts[:64]
			}
			return parts
		}
		seed := NewBasis(split(vars), split(slacks))
		m := buildTransportLP(rhsScale, priceScale)
		rowSlack := newWarmTableauIn(m, Options{}, nil).rowSlack
		if got, _ := seed.members(m, rowSlack, nil); !reflect.DeepEqual(append([]int{}, got...), append([]int{}, membersByMap(seed, m, rowSlack)...)) {
			t.Fatalf("seed %q | %q resolves to %v, map reference %v", vars, slacks, got, membersByMap(seed, m, rowSlack))
		}
		var s Solver
		warm, warmErr := s.SolveSeeded(m, seed, Options{})
		if warmErr == nil {
			for _, fresh := range []*Solver{onDense(), onSparse()} {
				used.minRows = fresh.minRows
				want := snapshot(t, fresh, fresh.SolveSeeded, m, seed, Options{})
				requireIdentical(t, "dirty solver", snapshot(t, used, used.SolveSeeded, m, seed, Options{}), want)
			}
		}
		cold, coldErr := m.SolveOpts(Options{})
		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("verdicts diverge: warm %v, cold %v (seed %q | %q)", warmErr, coldErr, vars, slacks)
		}
		if warmErr != nil {
			return
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
			t.Fatalf("objective %g vs cold %g (path %s, seed %q | %q)",
				warm.Objective, cold.Objective, s.LastOutcome().Path, vars, slacks)
		}
		if err := m.CheckFeasible(warm.X, 1e-6*(1+rhsScale*50)); err != nil {
			t.Fatalf("warm solution infeasible: %v (seed %q | %q)", err, vars, slacks)
		}
	})
}

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

// FuzzKernelDifferential solves one generated LP four ways — dense cold,
// dense warm from the cold basis, sparse by crash (all-slack, and from the
// cold basis) and sparse hot, on a kernel that has meanwhile solved the
// same structure under drifted costs and right-hand sides — and requires
// one verdict, one objective to 1e-7 of its scale, and of every Optimal
// answer a certificate against the model itself, never against another
// path's vector. The drifted LP gets the same treatment hot against cold.
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
		hot := onSparse()
		var coldBasis *Basis
		for _, lp := range []*Model{m, drifted, m} { // the third round re-solves m hot
			var cold Solver
			want, wantErr := cold.Solve(lp, Options{})
			if errors.Is(wantErr, ErrIterationLimit) || errors.Is(wantErr, ErrNumericBreakdown) {
				t.Skip("no verdict to compare")
			}
			if b, ok := cold.ExportBasis(); ok && lp == m {
				coldBasis = b
			}
			agree := func(what string, res *Result, err error) {
				t.Helper()
				if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: verdict %v, dense cold says %v", what, err, wantErr)
				}
				if err != nil {
					return
				}
				if math.Abs(res.Objective-want.Objective) > 1e-7*(1+math.Abs(want.Objective)) {
					t.Fatalf("%s: objective %g, dense cold says %g", what, res.Objective, want.Objective)
				}
				requireCertified(t, what, lp, res)
			}
			agree("dense cold", want, wantErr)
			s := onDense()
			res, err := s.SolveSeeded(lp, coldBasis, Options{})
			agree("dense warm", res, err)
			s.minRows = 1 // the same workspaces, now on the LU kernel
			for _, seed := range []*Basis{nil, coldBasis} {
				res, err = s.SolveSeeded(lp, seed, Options{})
				agree("sparse crash", res, err)
			}
			res, err = hot.SolveWarm(lp, coldBasis, Options{})
			agree("sparse "+hot.LastOutcome().Path, res, err)
		}
	})
}
