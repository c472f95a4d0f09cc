package lp

import (
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
			for _, opts := range []Options{{}, sparseTestOpts()} {
				var fresh Solver
				want := snapshot(t, &fresh, fresh.SolveSeeded, m, seed, opts)
				requireIdentical(t, "dirty solver", snapshot(t, used, used.SolveSeeded, m, seed, opts), want)
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
