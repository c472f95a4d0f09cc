package exp

import (
	"fmt"
	"sort"
	"strings"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/fault"
	"profitlb/internal/report"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
)

func init() {
	register(&Experiment{
		ID:    "rob2-chaos",
		Title: "Robustness: profit retention under an outage + price-spike storm",
		Paper: "beyond the paper (fault injection & resilient planning)",
		Run:   runChaosStorm,
	})
}

// chaosStormSchedule is the canonical storm of the robustness study: one
// data center offline for 3 of the Section VII window's 6 slots, a 2×
// price spike at the other center, and two planner faults (an error
// while the outage bites, a timeout during the spike) that force the
// fallback chain to actually fire. Explicit events (rather than a seeded
// Storm draw) keep the experiment's table stable across runs.
func chaosStormSchedule() *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{
		{Kind: fault.CenterOutage, Center: 1, From: 15, To: 17},
		{Kind: fault.PriceSpike, Center: 0, Factor: 2, From: 16, To: 18},
		{Kind: fault.PlannerError, From: 16, To: 16},
		{Kind: fault.PlannerTimeout, From: 18, To: 18},
	}}
}

// runChaosStorm replays the Section VII window clean and under the storm
// for each planner, every faulted lane wrapped in the resilient fallback
// chain, and tables profit retention, completion rate and degradation.
func runChaosStorm() (*Result, error) {
	ts := NewTwoLevelSetup()
	cleanCfg := ts.Config()
	stormCfg := cleanCfg
	stormCfg.Faults = chaosStormSchedule()
	stormCfg.DegradeOnFailure = true

	lanes := []struct {
		name    string
		planner func() core.Planner
	}{
		{"optimized", func() core.Planner { return core.NewOptimized() }},
		{"level-search", func() core.Planner { return core.NewLevelSearch() }},
		{"balanced", func() core.Planner { return baseline.NewBalanced() }},
	}
	cleanPlanners := make([]core.Planner, len(lanes))
	stormPlanners := make([]core.Planner, len(lanes))
	for i, ln := range lanes {
		cleanPlanners[i] = ln.planner()
		// The injector fires the schedule's planner faults at the primary
		// tier; the chain's deadline is shorter than the injected hang so
		// a timeout slot falls through instead of stalling.
		chain := resilient.Wrap(&fault.Injector{Planner: ln.planner(), Sched: stormCfg.Faults})
		chain.Timeout = fault.DefaultHang / 2
		stormPlanners[i] = chain
	}
	clean, err := sim.Compare(cleanCfg, cleanPlanners...)
	if err != nil {
		return nil, err
	}
	faulted, err := sim.Compare(stormCfg, stormPlanners...)
	if err != nil {
		return nil, err
	}

	t := report.NewTable("Outage + price-spike storm (14:00-19:00, center 2 down 15-17h, 2x spike 16-18h)",
		"planner", "clean net($)", "storm net($)", "retained", "completion", "degraded slots", "lost($)")
	for i, ln := range lanes {
		retained := report.Frac(faulted[i].TotalNetProfit(), clean[i].TotalNetProfit())
		t.AddRow(ln.name, report.F(clean[i].TotalNetProfit()), report.F(faulted[i].TotalNetProfit()),
			report.Pct(retained), report.Pct(faulted[i].MeanCompletion()),
			fmt.Sprintf("%d/%d", faulted[i].DegradedSlots(), len(faulted[i].Slots)),
			report.F(faulted[i].TotalLostRevenue()))
	}

	tiers := report.NewTable("Per-slot fallback tiers (optimized lane)",
		"hour", "tier", "faults active")
	for _, s := range faulted[0].Slots {
		tiers.AddRow(fmt.Sprintf("%d", s.Slot), s.TierLabel(), strings.Join(s.FaultsActive, " "))
	}

	var acts []string
	for name, n := range faulted[0].FallbackActivations() {
		acts = append(acts, fmt.Sprintf("%s×%d", name, n))
	}
	sort.Strings(acts)
	actNote := "no fallback tier fired in the optimized lane"
	if len(acts) > 0 {
		actNote = "optimized-lane fallback activations: " + strings.Join(acts, ", ")
	}
	return &Result{
		ID: "rob2-chaos", Title: "Fault-storm robustness",
		Tables: []*report.Table{t, tiers},
		Notes: []string{
			fmt.Sprintf("under the storm the optimized planner keeps $%s of net profit vs $%s for balanced — price-aware dispatch matters most exactly when capacity is scarce and prices spike",
				report.F(faulted[0].TotalNetProfit()), report.F(faulted[2].TotalNetProfit())),
			actNote,
			"every lane finishes the full horizon: outage slots shed only the load that no longer fits, and the accounting books the shortfall as lost revenue instead of aborting",
		},
	}, nil
}
