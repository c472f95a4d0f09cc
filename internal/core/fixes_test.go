package core

import (
	"testing"

	"profitlb/internal/datacenter"
	"profitlb/internal/tuf"
)

// flooredEvictionSystem reproduces the capReservations eviction bug:
// three profitable single-level classes whose zero-load reservations
// overflow the per-server budget next to a loss-making floored class.
// Value-ordered eviction used to throw out the floored commodity first
// (its bestCoef is negative), and because the surviving gold pair still
// reserves ~0.898 of a server, the toggle search cannot re-admit steel
// (0.898 + 0.2 > 0.999 trips the reservation cap on every add move).
// With every class single-level there is no greedy re-seed either, so
// Plan failed with a spurious "completion floors exceed what the fleet
// can serve" on this perfectly feasible instance.
func flooredEvictionSystem() *datacenter.System {
	gold := func(name string, u, d float64) datacenter.RequestClass {
		return datacenter.RequestClass{Name: name, TUF: tuf.MustNew([]tuf.Level{{Utility: u, Deadline: d}}), TransferCostPerMile: 0.0001}
	}
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			gold("gold-a", 30, 1.0/45),
			gold("gold-b", 20, 1.0/45+0.0001),
			gold("gold-c", 10, 1.0/45+0.0002),
			// Loss-making: energy cost ($2/request at price 1) dwarfs the
			// 0.5 utility, so only a completion floor can admit it.
			gold("steel", 0.5, 0.05),
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "fe", DistanceMiles: []float64{100}}},
		Centers: []datacenter.DataCenter{{
			Name: "dc", Servers: 2, Capacity: 1,
			ServiceRate:      []float64{100, 100, 100, 100},
			EnergyPerRequest: []float64{0.1, 0.1, 0.1, 2.0},
		}},
	}
}

func TestCapReservationsSparesFlooredCommodities(t *testing.T) {
	in := &Input{Sys: flooredEvictionSystem(), Arrivals: [][]float64{{50, 50, 50, 20}}, Prices: []float64{1}}
	o := NewOptimized()
	o.MinCompletion = []float64{0, 0, 0, 0.5}
	plan, err := o.Plan(in)
	if err != nil {
		t.Fatalf("feasible floored instance rejected: %v", err)
	}
	if err := Verify(in, plan, 1e-6); err != nil {
		t.Fatalf("plan fails verification: %v", err)
	}
	if got, want := plan.Served(3), 0.5*20; got < want-1e-6 {
		t.Fatalf("floored class served %g, want at least %g", got, want)
	}
}

// The eviction order itself: floored commodities go only after every
// non-floored commodity at the center is gone.
func TestWorstEvictableOrder(t *testing.T) {
	comms := []commodity{
		{k: 0, q: 0, l: 0, bestCoef: -2, floored: true},
		{k: 1, q: 0, l: 0, bestCoef: 3},
		{k: 2, q: 0, l: 0, bestCoef: 1},
	}
	if got := worstEvictable(comms, nil); got != 2 {
		t.Fatalf("want the cheapest non-floored commodity (index 2), got %d", got)
	}
	comms = comms[:1]
	if got := worstEvictable(comms, nil); got != 0 {
		t.Fatalf("want the floored fallback (index 0), got %d", got)
	}
	if got := worstEvictable(nil, nil); got != -1 {
		t.Fatalf("want -1 on empty set, got %d", got)
	}
}

// TestAllocateCenterToleranceBoundary pins the unified share tolerance:
// a server count whose shares overshoot 1 by 5e-8 — inside the
// feasibility gate's 1e-6 budget but outside the old binary search's
// 1e-9 bound — must be accepted by consolidation. The old mismatch made
// the search reject it and power one more server than the gate (and the
// verifier, which runs at 1e-6 throughout the repo) requires.
func TestAllocateCenterToleranceBoundary(t *testing.T) {
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			// 1/(D·μ) = 0.5 of a server reserved by the deadline alone.
			{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 2}}), TransferCostPerMile: 0},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "fe", DistanceMiles: []float64{0}}},
		Centers: []datacenter.DataCenter{{
			Name: "dc", Servers: 3, Capacity: 1,
			ServiceRate:      []float64{1},
			EnergyPerRequest: []float64{0},
		}},
	}
	in := &Input{Sys: sys, Arrivals: [][]float64{{2}}, Prices: []float64{1}}
	// shareAt(2) = 0.5 + λ/2 = 1 + 5e-8: feasible within shareFeasTol,
	// infeasible under the old 1e-9 search bound.
	lam := 1 + 1e-7
	plan, err := planFromRates(in, []commodity{{k: 0, q: 0, l: 0}}, [][]float64{{lam}}, new(readout), nil)
	if err != nil {
		t.Fatalf("allocateCenter: %v", err)
	}
	if got := plan.ServersOn[0]; got != 2 {
		t.Fatalf("consolidation picked %d servers; the gate tolerance admits 2", got)
	}
	share := plan.Phi[0][0][0]
	if share > 1+shareFeasTol {
		t.Fatalf("share %g exceeds the unified tolerance", share)
	}
	if err := Verify(in, plan, 1e-6); err != nil {
		t.Fatalf("consolidated plan fails the verifier it is aligned with: %v", err)
	}
	// The boundary case must sit strictly between the two old bounds,
	// or the test is vacuous.
	if share <= 1+1e-9 || share > 1+1e-6 {
		t.Fatalf("test fixture drifted: share %g not in (1+1e-9, 1+1e-6]", share)
	}
}
