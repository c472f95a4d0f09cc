// Acceptance gates for the MPC planning plane, driven through the full
// simulator (package mpc_test so the sim → core → mpc layering stays
// acyclic): reduction bit-identity, the Houston price-vibration profit
// gate, never-loses on clean scenarios, and fault-storm degradation with
// forced backlog drains.
package mpc_test

import (
	"math"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/fault"
	"profitlb/internal/market"
	"profitlb/internal/mpc"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

// accSys mirrors the package's unit fixture: one interactive class that is
// always profitable and one energy-heavy batch class (utility 5, 40 kWh per
// krequest) that turns loss-making whenever electricity crosses ~0.124
// $/kWh — exactly the Houston afternoon spikes.
func accSys() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.2}}), TransferCostPerMile: 0.0005},
			{Name: "batch", TUF: tuf.MustNew([]tuf.Level{{Utility: 5, Deadline: 1.0}}), TransferCostPerMile: 0.0005},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "fe", DistanceMiles: []float64{100}}},
		Centers: []datacenter.DataCenter{{
			Name: "dc", Servers: 8, Capacity: 1,
			ServiceRate:      []float64{120, 100},
			EnergyPerRequest: []float64{1.0, 40},
		}},
	}
}

func accConfig(sys *datacenter.System, prices *market.PriceTrace, start, slots int) sim.Config {
	n := start + slots
	return sim.Config{
		Sys:       sys,
		Traces:    []*workload.Trace{workload.Constant("fe", []float64{300, 200}, n)},
		Prices:    []*market.PriceTrace{prices},
		Slots:     slots,
		StartSlot: start,
	}
}

func flatPrices(p float64, n int) *market.PriceTrace {
	tr := &market.PriceTrace{Name: "flat"}
	for i := 0; i < n; i++ {
		tr.Prices = append(tr.Prices, p)
	}
	return tr
}

// TestMPCReductionMatchesMyopicRun: with H=1 or no deferral allowance the
// whole simulated run — profits, costs, server counts, served volumes —
// must be identical to the plain myopic planner's, slot by slot.
func TestMPCReductionMatchesMyopicRun(t *testing.T) {
	cfg := accConfig(accSys(), market.Houston(), 13, 8)
	for name, mc := range map[string]mpc.Config{
		"horizon-1":  {Horizon: 1, MaxDefer: []int{0, 2}, EndSlot: 21},
		"zero-defer": {Horizon: 5, EndSlot: 21},
	} {
		t.Run(name, func(t *testing.T) {
			got, err := sim.Run(cfg, mpc.New(mc))
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(cfg, core.NewOptimized())
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Slots {
				g, w := got.Slots[i], want.Slots[i]
				if g.NetProfit != w.NetProfit || g.Revenue != w.Revenue ||
					g.EnergyCost != w.EnergyCost || g.TransferCost != w.TransferCost ||
					g.ServersOn != w.ServersOn || g.LostRevenue != w.LostRevenue {
					t.Fatalf("slot %d diverges: mpc %+v vs myopic %+v", i, g, w)
				}
				for k := range w.ServedByType {
					if g.ServedByType[k] != w.ServedByType[k] {
						t.Fatalf("slot %d class %d served %g vs %g", i, k, g.ServedByType[k], w.ServedByType[k])
					}
				}
			}
		})
	}
}

// TestMPCBeatsMyopicOnHoustonVibration is the paper-window gate: over the
// 14:00–19:00 Houston price vibration the myopic planner drops the batch
// class at every spike (serving it there costs more than its utility),
// while the MPC planner defers it one or two slots into the valleys.
func TestMPCBeatsMyopicOnHoustonVibration(t *testing.T) {
	cfg := accConfig(accSys(), market.Houston(), 13, 8) // slots 13..20, spikes at 14/16/18
	mp := mpc.New(mpc.Config{Horizon: 5, MaxDefer: []int{0, 2}, EndSlot: 21})
	reports, err := sim.Compare(cfg, mp, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	m, myo := reports[0], reports[1]
	if m.TotalNetProfit() <= myo.TotalNetProfit() {
		t.Fatalf("mpc %g did not beat myopic %g on the vibration window",
			m.TotalNetProfit(), myo.TotalNetProfit())
	}
	deferred, drained, _, shed := m.DeferralTotals()
	if deferred <= 0 {
		t.Fatal("nothing deferred across the spike slots")
	}
	if shed != 0 {
		t.Fatalf("deadline misses on a clean ample-capacity window: shed %g", shed)
	}
	if math.Abs(deferred-drained) > 1e-6 {
		t.Fatalf("deferred %g vs drained %g with empty final backlog", deferred, drained)
	}
	if got := m.FinalBacklog(); got != 0 {
		t.Fatalf("stranded backlog %g despite EndSlot", got)
	}
	// The deferred volume is real service: batch completion ~1 for MPC,
	// while myopic loses the three spike slots (5 of 8 served).
	if got := m.CompletionRate(1); got < 0.999 {
		t.Fatalf("mpc batch completion %g", got)
	}
	if got := myo.CompletionRate(1); got > 0.7 {
		t.Fatalf("myopic batch completion %g — scenario lost its spikes", got)
	}
	if m.TotalLostRevenue() >= myo.TotalLostRevenue() {
		t.Fatalf("mpc lost revenue %g not below myopic %g",
			m.TotalLostRevenue(), myo.TotalLostRevenue())
	}
}

// TestMPCNeverLosesOnCleanScenarios: enabling the MPC plane must never cost
// profit on fault-free scenarios, including the adversarial ones — flat
// prices (deferral can only break even), a monotone morning price ramp
// (where a lagging forecast would defer straight into the peak if the
// price hedge were absent), and a plain two-class day.
func TestMPCNeverLosesOnCleanScenarios(t *testing.T) {
	cases := []struct {
		name string
		cfg  sim.Config
		mc   mpc.Config
	}{
		{
			name: "flat-prices",
			cfg:  accConfig(accSys(), flatPrices(0.08, 24), 0, 8),
			mc:   mpc.Config{Horizon: 4, MaxDefer: []int{0, 2}, EndSlot: 8},
		},
		{
			name: "morning-ramp",
			cfg:  accConfig(accSys(), market.Houston(), 6, 7), // 0.048 → 0.101 monotone
			mc:   mpc.Config{Horizon: 4, MaxDefer: []int{0, 2}, EndSlot: 13},
		},
		{
			name: "full-day",
			cfg:  accConfig(accSys(), market.Houston(), 0, 24),
			mc:   mpc.Config{Horizon: 4, MaxDefer: []int{0, 2}, EndSlot: 24},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reports, err := sim.Compare(c.cfg, mpc.New(c.mc), core.NewOptimized())
			if err != nil {
				t.Fatal(err)
			}
			m, myo := reports[0].TotalNetProfit(), reports[1].TotalNetProfit()
			tol := 1e-6 + 1e-3*math.Abs(myo)
			if m < myo-tol {
				t.Fatalf("mpc %g below myopic %g on a clean scenario", m, myo)
			}
			if _, _, _, shed := reports[0].DeferralTotals(); shed != 0 {
				t.Fatalf("clean scenario shed %g", shed)
			}
			if got := reports[0].FinalBacklog(); got != 0 {
				t.Fatalf("stranded backlog %g", got)
			}
		})
	}
}

// stormPrices: cheap, then two consecutive spikes, then cheap again. Work
// deferred at slot 1 comes due at slot 2 — exactly when the planner fault
// fires — so the fallback tier must force-drain it at a loss rather than
// miss its deadline.
func stormPrices() *market.PriceTrace {
	return &market.PriceTrace{Name: "storm", Prices: []float64{0.08, 0.148, 0.139, 0.08, 0.08, 0.08}}
}

// TestMPCFaultDegradesToForcedDrain: a planner fault in the middle of the
// deferral window drops the chain to its myopic greedy tier, which knows
// nothing about the backlog; the commit hook force-dispatches the due
// bucket so no deadline is violated.
func TestMPCFaultDegradesToForcedDrain(t *testing.T) {
	sched := &fault.Schedule{Events: []fault.Event{{Kind: fault.PlannerError, From: 2, To: 2}}}
	mp := mpc.New(mpc.Config{Horizon: 4, MaxDefer: []int{0, 1}, EndSlot: 6})
	chain := resilient.Wrap(&fault.Injector{Planner: mp, Sched: sched})
	cfg := accConfig(accSys(), stormPrices(), 0, 6)
	cfg.Faults = sched
	rep, err := sim.Run(cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Slots[2].Degraded || rep.Slots[2].FallbackTier < 1 {
		t.Fatalf("fault slot not degraded: %+v", rep.Slots[2])
	}
	deferred, _, forced, shed := rep.DeferralTotals()
	if deferred <= 0 {
		t.Fatal("spike slot deferred nothing")
	}
	if forced <= 0 {
		t.Fatalf("due backlog not force-drained through the fallback tier (forced %g)", forced)
	}
	if shed != 0 {
		t.Fatalf("deadline violations under rescue: shed %g", shed)
	}
	if got := rep.FinalBacklog(); got != 0 {
		t.Fatalf("stranded backlog %g", got)
	}
}

// TestMPCFaultWithoutRescueSheds is the counterfactual: the same storm with
// no resilient chain sheds the faulted slot, and the due bucket expires as
// a deadline miss billed to lost revenue — the deferral-versus-shed trade
// the resilience ladder exists to win.
func TestMPCFaultWithoutRescueSheds(t *testing.T) {
	sched := &fault.Schedule{Events: []fault.Event{{Kind: fault.PlannerError, From: 2, To: 2}}}
	mp := mpc.New(mpc.Config{Horizon: 4, MaxDefer: []int{0, 1}, EndSlot: 6})
	cfg := accConfig(accSys(), stormPrices(), 0, 6)
	cfg.Faults = sched
	cfg.DegradeOnFailure = true
	rep, err := sim.Run(cfg, &fault.Injector{Planner: mp, Sched: sched})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Slots[2].Degraded || rep.Slots[2].FallbackName != "shed" {
		t.Fatalf("fault slot not shed: %+v", rep.Slots[2])
	}
	_, _, _, shed := rep.DeferralTotals()
	if math.Abs(shed-200) > 1e-6 {
		t.Fatalf("due bucket shed %g, want 200", shed)
	}
	if rep.Slots[2].LostRevenue <= 0 {
		t.Fatal("deadline miss not billed to lost revenue")
	}
	if got := rep.FinalBacklog(); got != 0 {
		t.Fatalf("stranded backlog %g", got)
	}
}

// TestMPCTimeoutSlotsFallBack: three timeout slots in a row fall through
// to the ladder's backlog-blind tiers, whose commits the chain force-drains,
// so the run completes, sheds nothing and strands no backlog.
func TestMPCTimeoutSlotsFallBack(t *testing.T) {
	sched := &fault.Schedule{Events: []fault.Event{{Kind: fault.PlannerTimeout, From: 1, To: 3}}}
	mp := mpc.New(mpc.Config{Horizon: 4, MaxDefer: []int{0, 2}, EndSlot: 6})
	chain := resilient.Wrap(&fault.Injector{Planner: mp, Sched: sched})
	cfg := accConfig(accSys(), stormPrices(), 0, 6)
	cfg.Faults = sched
	rep, err := sim.Run(cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != 6 {
		t.Fatalf("run truncated: %d slots", len(rep.Slots))
	}
	if _, _, _, shed := rep.DeferralTotals(); shed != 0 {
		t.Fatalf("shed %g under timeouts with capacity to spare", shed)
	}
	if got := rep.FinalBacklog(); got != 0 {
		t.Fatalf("stranded backlog %g", got)
	}
}
