package tuf

import (
	"fmt"
	"math"
)

// DefaultDelta is the paper's δ: a time increment "small enough" that
// D_q + δ is the first instant after sub-deadline D_q. Time in this
// reproduction is measured in hours, so a microsecond-scale δ is far below
// any meaningful delay resolution.
const DefaultDelta = 1e-9

// feasEps is the round-off of evaluating a constraint at a point.
const feasEps = 1e-12

// BigMConstraint is one inequality of the series: the constraint
//
//	timeGap(R) + M · utilityGap(U) ≤ 0
//
// where timeGap is either (R − D_q) or (D_q + δ − R) and utilityGap is a
// product of up to two utility differences, exactly as in paper Eq. 17.
type BigMConstraint struct {
	Name string
	// TimeGap evaluates the time part at delay r.
	TimeGap func(r float64) float64
	// UtilityGap evaluates the utility part at utility u.
	UtilityGap func(u float64) float64
}

// ConstraintSeries is the big-M system of paper Eqs. 11–13 (two levels) and
// Eqs. 17–22 (n levels) that pins the utility variable U to TUF(R) without
// if/else statements, making the problem expressible for solvers that lack
// conditional constructs.
type ConstraintSeries struct {
	TUF         *StepDownward
	M           float64 // Θ, the large constant
	Delta       float64 // δ, the small time increment
	Constraints []BigMConstraint
}

// RequiredM returns the smallest big-M constant that makes the series exact
// for delays in (0, horizon]. Each constraint needs
// M · (adjacent utility gap) ≥ (worst-case time gap), so the bound is the
// maximum over levels of horizon divided by the smallest utility gap.
func RequiredM(s *StepDownward, horizon float64) float64 {
	minGap := math.Inf(1)
	ls := s.levels
	for i := 1; i < len(ls); i++ {
		if g := ls[i-1].Utility - ls[i].Utility; g < minGap {
			minGap = g
		}
	}
	if math.IsInf(minGap, 1) { // single level: any positive M works
		return 1
	}
	return (horizon + s.Deadline()) / minGap
}

// NewConstraintSeries builds the big-M series for s. When m <= 0 the
// minimal sufficient constant for the given horizon is used (with a 2x
// safety factor); when delta <= 0, DefaultDelta is used.
func NewConstraintSeries(s *StepDownward, m, delta, horizon float64) *ConstraintSeries {
	if m <= 0 {
		m = 2 * RequiredM(s, horizon)
	}
	if delta <= 0 {
		delta = DefaultDelta
	}
	cs := &ConstraintSeries{TUF: s, M: m, Delta: delta}
	ls := s.levels
	n := len(ls)
	if n == 1 {
		// One level needs no series: the utility is constant before the
		// deadline. Emit the vacuous constraint set.
		return cs
	}
	// First constraint (paper Eq. 12 / first row of Eq. 17):
	//   (R − D_1) + Θ(U − U_1) ≤ 0
	// It binds only when U = U_1 (any lower level makes the Θ term very
	// negative) and then forces R ≤ D_1.
	cs.add(fmt.Sprintf("R<=D1 when U=U%d", 1),
		func(r float64) float64 { return r - ls[0].Deadline },
		func(u float64) float64 { return u - ls[0].Utility })
	for q := 1; q <= n-2; q++ {
		q := q
		// (D_q + δ − R) + Θ(U_{q+1} − U)(U − U_{q+2}) ≤ 0: binds when
		// U ∈ {U_{q+1}, U_{q+2}} and then forces R ≥ D_q + δ.
		cs.add(fmt.Sprintf("R>D%d when U in {U%d,U%d}", q, q+1, q+2),
			func(r float64) float64 { return ls[q-1].Deadline + cs.Delta - r },
			func(u float64) float64 { return (ls[q].Utility - u) * (u - ls[q+1].Utility) })
		// (R − D_{q+1}) + Θ(U_{q+1} − U)(U − U_q) ≤ 0: binds when
		// U ∈ {U_q, U_{q+1}} and then forces R ≤ D_{q+1}.
		cs.add(fmt.Sprintf("R<=D%d when U in {U%d,U%d}", q+1, q, q+1),
			func(r float64) float64 { return r - ls[q].Deadline },
			func(u float64) float64 { return (ls[q].Utility - u) * (u - ls[q-1].Utility) })
	}
	// Last constraint (paper Eq. 13 / last row of Eq. 17):
	//   (D_{n-1} + δ − R) + Θ(U_n − U) ≤ 0
	// binds only when U = U_n and then forces R ≥ D_{n-1} + δ.
	cs.add(fmt.Sprintf("R>D%d when U=U%d", n-1, n),
		func(r float64) float64 { return ls[n-2].Deadline + cs.Delta - r },
		func(u float64) float64 { return ls[n-1].Utility - u })
	return cs
}

func (cs *ConstraintSeries) add(name string, tg, ug func(float64) float64) {
	cs.Constraints = append(cs.Constraints, BigMConstraint{Name: name, TimeGap: tg, UtilityGap: ug})
}

// Feasible reports whether the pair (delay r, utility u) satisfies every
// constraint of the series. The paper's claim (proved in its Section IV
// case analyses) is that for every r in (0, D_k] exactly one level utility
// is feasible, namely TUF(r); FeasibleUtilities lets tests verify this.
func (cs *ConstraintSeries) Feasible(r, u float64) bool {
	for _, c := range cs.Constraints {
		if c.TimeGap(r)+cs.M*c.UtilityGap(u) > feasEps {
			return false
		}
	}
	return true
}

// FeasibleUtilities returns the level utilities that satisfy the whole
// series at delay r, by brute force over the discrete domain of paper
// Eq. 11 / Eq. 18 (U must be one of the level utilities).
func (cs *ConstraintSeries) FeasibleUtilities(r float64) []float64 {
	var out []float64
	for _, l := range cs.TUF.levels {
		if cs.Feasible(r, l.Utility) {
			out = append(out, l.Utility)
		}
	}
	return out
}

// Violation returns the largest constraint violation at (r, u), useful for
// diagnostics; 0 means feasible.
func (cs *ConstraintSeries) Violation(r, u float64) float64 {
	var worst float64
	for _, c := range cs.Constraints {
		if v := c.TimeGap(r) + cs.M*c.UtilityGap(u); v > worst {
			worst = v
		}
	}
	return worst
}
