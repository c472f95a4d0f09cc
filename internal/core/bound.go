package core

import (
	"math"

	"profitlb/internal/lp"
)

// improveTol is the margin of the first-improvement searches: a move is
// accepted only when its optimum beats the incumbent's by more than
// this, and rejected unsolved when its dual bound cannot.
const improveTol = 1e-9

// cutSlack is how far, relative to the incumbent's objective, a move's
// cutoff sits below it (cutoffOf): a trial stops once its dual bound is
// under the cutoff (lp.Solver.Trial), so a move whose optimum is within
// round-off of the accept test is still solved, and the search takes the
// moves it would take with every survivor solved.
const cutSlack = 1e-7

// noCutoff is the cutoff of a request whose optimum is needed whatever it
// is: no trial stops short for it.
var noCutoff = math.Inf(-1)

// cutoffOf is the cutoff of a move off an incumbent at obj: the accept
// test turns down any optimum below it.
func cutoffOf(obj float64) float64 { return obj - cutSlack*max(1, math.Abs(obj)) }

// prices is what a first-improvement search keeps of a solved subset LP:
// its shadow prices by meaning, and its identity and set, from which its
// neighbours are solved (see heldUnit). With lp.Result.Duals = ∂obj/∂rhs
// the rows of the aggregated layout price as
//
//	cap_c    M·C·μ·φ_c − Σ_s λ_cs ≥ M/D_c    y_c  ≤ 0
//	arr_ks   Σ_{c∈k} λ_cs ≤ A_sk             α_ks ≥ 0
//	floor_k  Σ_{c∈k,s} λ_cs ≥ F_k            β_k  ≤ 0
//	share_l  Σ_{c∈l} φ_c ≤ 1                 σ_l  ≥ 0
//
// and optimality reads T·profit_cs + y_c − α_ks − β_k ≤ 0 for every λ
// column and −y_c·M·C·μ ≤ σ_l for every φ column, at objective
// Σ y_c·M/D_c + Σ α·A + Σ β·F + Σ σ (DESIGN.md §7.4).
type prices struct {
	// drop[ci] = −y_c·M_l/D_c: the most the objective can gain when
	// commodity ci's reservation is lifted.
	drop []float64
	// share[l] = σ_l; NaN where the set has no commodity at center l.
	share []float64
	// route[k·S+s] = α_ks + β_k, what a type-k request from front-end s
	// must out-earn; NaN where the set has no commodity of class k.
	route []float64
	// seed is the solution's identity, by which the hot unit knows whose
	// kernel it holds (heldUnit.cp, last), and comms its set, which the hot
	// unit admits to solve the moves made from it; 0 and nil on a cold
	// engine, whose solves nothing depends on.
	seed  uint64
	comms []commodity
}

// priceOut reads the prices of d's solved LP (aggregated layout only) for
// the set comms: d's own commodities, or on the hot unit's LP those
// at[ci] names, the rows of the others holding nothing (0 ≥ 0 and the
// like) that a subset LP would have.
func (d *dispatchLP) priceOut(in *Input, res *lp.Result, comms []commodity, at []int) *prices {
	sys := in.Sys
	K, L, S := sys.K(), sys.L(), sys.S()
	slab := make([]float64, len(comms)+L+K*S)
	p := &prices{drop: slab[:len(comms)], share: slab[len(comms):][:L], route: slab[len(comms)+L:]}
	for i := range p.share {
		p.share[i] = math.NaN()
	}
	for i := range p.route {
		p.route[i] = math.NaN()
	}
	for ci, c := range comms {
		row := ci // the cap rows are the model's first, one per commodity
		if at != nil {
			row = at[ci]
		}
		p.drop[ci] = -res.Duals[row] * float64(sys.Centers[c.l].Servers) / c.deadline
		p.share[c.l] = res.Duals[d.shareRow[c.l]]
		if route := p.route[c.k*S:][:S]; math.IsNaN(route[0]) {
			var floor float64
			if c.k < len(d.floorRow) && d.floorRow[c.k] >= 0 {
				floor = res.Duals[d.floorRow[c.k]]
			}
			for s, row := range d.arrRow[c.k] {
				route[s] = res.Duals[row] + floor
			}
		}
	}
	return p
}

// bound caps, by weak duality and without building anything, the optimum
// of the incumbent's set with the commodity at position out removed
// (−1: none) and add admitted (nil: none). The incumbent's prices stay
// dual feasible for the neighbour once a removed commodity's columns and
// cap row are struck and an entering one's cap row is priced at
// u = σ_l/(M·C·μ), which balances its φ column — provided its λ columns
// then price out too, T·profit_cs − α_ks − β_k ≤ u for every s. The dual
// objective moves by the struck and the new cap rows' terms alone:
//
//	z_T ≤ z_I + drop[out] − u·M/D_add.
//
// Rows of I that T no longer has only loosen the bound (their terms are
// non-negative). An entering commodity whose routes do not price out, or
// whose center or class the incumbent has no row for, is bounded by a
// Lagrangian instead (addBound). ok is false where there are no prices:
// the incumbent was infeasible under its floors, or the per-server
// layout, which keeps none.
func (p *prices) bound(in *Input, obj float64, out int, add *commodity) (_ float64, ok bool) {
	if p == nil {
		return 0, false
	}
	if out >= 0 {
		obj += p.drop[out]
	}
	if add == nil {
		return obj, true
	}
	if u, ok := p.entry(in, add); ok {
		return obj - u*float64(in.Sys.Centers[add.l].Servers)/add.deadline, true
	}
	return obj + p.addBound(in, add), true
}

// entry is the price u = σ_l/(M·C·μ) of add's cap row, and whether add's
// routes price out under it: a NaN (absent row) fails the comparison.
func (p *prices) entry(in *Input, add *commodity) (u float64, ok bool) {
	sys := in.Sys
	dc := &sys.Centers[add.l]
	u = p.share[add.l] / (float64(dc.Servers) * dc.Capacity * dc.ServiceRate[add.k])
	for s, r := range p.route[add.k*sys.S():][:sys.S()] {
		if !(sys.Slot()*sys.UnitProfit(add.k, s, add.l, add.utility, in.Prices[add.l])-r <= u) {
			return u, false
		}
	}
	return u, true
}

// addBound is what admitting add can gain when its routes do not price
// out: a Lagrangian bound that prices add's cap row at −w (w ≥ 0) and
// every other row of the neighbour at the incumbent's price (0 for a row
// the incumbent lacks), and lets each column whose reduced cost is then
// positive run to the box its own rows imply — φ ≤ 1 by the share row,
// λ_s ≤ min(A_sk, a − M/D) by the arrival row and the cap row — with
// a = M·C·μ and p_s = T·profit:
//
//	z_T ≤ z_I + drop[out] − w·M/D + (a·w − σ_l)⁺ + Σ_s (p_s − route_ks − w)⁺·λmax_s.
//
// The incumbent's own columns price out and stay at 0. The right side is
// convex and piecewise linear in w, so its least value over w ≥ 0 is at 0
// or a breakpoint: σ_l/a or some p_s − route_ks.
func (p *prices) addBound(in *Input, add *commodity) float64 {
	sys := in.Sys
	dc := &sys.Centers[add.l]
	need := float64(dc.Servers) / add.deadline
	a := float64(dc.Servers) * dc.Capacity * dc.ServiceRate[add.k]
	sigma, lmax := orZero(p.share[add.l]), max(0, a-need)
	route := p.route[add.k*sys.S():][:sys.S()]
	margin := func(s int) float64 {
		return sys.Slot()*sys.UnitProfit(add.k, s, add.l, add.utility, in.Prices[add.l]) - orZero(route[s])
	}
	gain := func(w float64) float64 {
		g := -w*need + max(0, a*w-sigma)
		for s := range route {
			g += max(0, margin(s)-w) * min(in.Arrivals[s][add.k], lmax)
		}
		return g
	}
	best := min(gain(0), gain(sigma/a))
	for s := range route {
		if w := margin(s); w > 0 {
			best = min(best, gain(w))
		}
	}
	return best
}

// orZero is v, or 0 for an absent row's NaN.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
