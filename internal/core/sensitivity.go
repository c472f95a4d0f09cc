package core

import (
	"fmt"

	"profitlb/internal/lp"
)

// Sensitivity reports the shadow prices of the slot LP: what one more
// unit of each scarce resource would be worth this slot. It turns the
// dispatcher into a capacity-planning instrument — the marginal value of
// CPU share tells the provider *which* data center to grow, and the
// marginal value of demand tells it which request types are worth
// acquiring more traffic for.
type Sensitivity struct {
	// ShareValue[l] is the slot-profit gain ($) per extra unit of
	// per-server CPU share at center l (≈ the value of one extra server
	// divided by the center's current server count, at the margin).
	ShareValue []float64
	// DemandValue[s][k] is the slot-profit gain ($) per extra unit of
	// type-k arrival rate at front-end s. Zero when demand of that type
	// is not worth serving or capacity is exhausted elsewhere.
	DemandValue [][]float64
	// Objective is the slot LP optimum the prices are taken at.
	Objective float64
}

// Sensitivity solves the slot LP over the planner's refined commodity set
// and extracts the dual values of the share and arrival constraints.
// It uses the aggregated layout regardless of the PerServer setting (the
// duals are identical for homogeneous fleets), on a cold engine of its
// own: the prices read out are duals, which are exact at a cold-certified
// vertex, and the planner's retained hot chain and Stats sink must not be
// perturbed by a side-channel solve between Plan calls.
func (o *Optimized) Sensitivity(in *Input) (*Sensitivity, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cold := EngineOptions{LPOpts: o.LPOpts}
	eng := cold.open(in, o.Name(), false, o.Refine)
	defer eng.close()
	full := admissibleCommodities(in, o.MinCompletion)
	comms := capReservations(in, full)
	if o.Refine {
		// Use the same subset the planner would commit to, so the prices
		// describe the plan actually executed.
		best, err := o.solveSubset(eng, comms, nil)
		if err != nil {
			return nil, err
		}
		improved, err := o.toggleSearch(eng, full, best)
		if err != nil {
			return nil, err
		}
		comms = improved.comms
	}
	sys := in.Sys
	out := &Sensitivity{
		ShareValue:  make([]float64, sys.L()),
		DemandValue: make([][]float64, sys.S()),
	}
	for s := range out.DemandValue {
		out.DemandValue[s] = make([]float64, sys.K())
	}
	if len(comms) == 0 {
		return out, nil
	}
	d, res, _, err := eng.solveLP(comms, o.MinCompletion, nil)
	if err != nil {
		return nil, fmt.Errorf("core: sensitivity LP failed: %w", err)
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("core: sensitivity LP status %v", res.Status)
	}
	out.Objective = res.Objective
	for l, row := range d.shareRow {
		if row >= 0 {
			out.ShareValue[l] = res.Duals[row]
		}
	}
	for k := range d.arrRow {
		for s, row := range d.arrRow[k] {
			if row >= 0 {
				out.DemandValue[s][k] = res.Duals[row]
			}
		}
	}
	return out, nil
}

// DispatchModel builds the slot LP over the full admissible commodity set
// without solving it, for inspection or export in the CPLEX LP format
// (lp.Model.WriteLPFormat) — the bridge back to the solvers the paper
// used.
func DispatchModel(in *Input) (*lp.Model, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	comms := capReservations(in, admissibleCommodities(in, nil))
	return buildDispatchLP(in, comms, nil, false, nil).model, nil
}
