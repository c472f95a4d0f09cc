package core

import (
	"math"

	"profitlb/internal/lp"
)

// improveTol is the margin of the first-improvement searches: a move is
// accepted only when its optimum beats the incumbent's by more than
// this, and rejected unsolved when its dual bound cannot.
const improveTol = 1e-9

// prices is what a first-improvement search keeps of a solved subset LP:
// its shadow prices by meaning, and the final basis its neighbours are
// seeded from. With lp.Result.Duals = ∂obj/∂rhs the rows of the
// aggregated layout price as
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
	// basis is the LP's final basis and seed its identity in the memo
	// key; nil and 0 — the slot's frozen seed — on a cold engine or when
	// the basis could not be named.
	basis *lp.Basis
	seed  uint64
}

// priceOut reads the prices of d's solved LP (aggregated layout only).
func (d *dispatchLP) priceOut(in *Input, res *lp.Result) *prices {
	sys := in.Sys
	K, L, S := sys.K(), sys.L(), sys.S()
	slab := make([]float64, len(d.comms)+L+K*S)
	p := &prices{drop: slab[:len(d.comms)], share: slab[len(d.comms):][:L], route: slab[len(d.comms)+L:]}
	for ci, c := range d.comms {
		// The cap rows are the model's first, one per commodity.
		p.drop[ci] = -res.Duals[ci] * float64(sys.Centers[c.l].Servers) / c.deadline
	}
	for l, row := range d.shareRow {
		p.share[l] = math.NaN()
		if row >= 0 {
			p.share[l] = res.Duals[row]
		}
	}
	for k, rows := range d.arrRow {
		var floor float64
		if k < len(d.floorRow) && d.floorRow[k] >= 0 {
			floor = res.Duals[d.floorRow[k]]
		}
		for s, row := range rows {
			p.route[k*S+s] = math.NaN()
			if row >= 0 {
				p.route[k*S+s] = res.Duals[row] + floor
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
// non-negative). ok is false where no bound is defined, and the caller
// solves the LP: no prices (the incumbent was infeasible under its
// floors, or the per-server layout, which keeps none), or an entering
// commodity whose center or class the incumbent has no row for, or whose
// routes do not price out.
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
	sys := in.Sys
	dc := &sys.Centers[add.l]
	m := float64(dc.Servers)
	route := p.route[add.k*sys.S():][:sys.S()]
	u := p.share[add.l] / (m * dc.Capacity * dc.ServiceRate[add.k])
	for s, r := range route {
		// A NaN (absent row) fails the comparison: no bound.
		if !(sys.Slot()*sys.UnitProfit(add.k, s, add.l, add.utility, in.Prices[add.l])-r <= u) {
			return 0, false
		}
	}
	return obj - u*m/add.deadline, true
}
