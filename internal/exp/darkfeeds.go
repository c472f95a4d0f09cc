package exp

import (
	"fmt"
	"strings"

	"profitlb/internal/core"
	"profitlb/internal/fault"
	"profitlb/internal/feed"
	"profitlb/internal/report"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
)

func init() {
	register(&Experiment{
		ID:    "rob3-darkfeeds",
		Title: "Robustness: planning on degraded telemetry, from noisy feeds to total darkness",
		Paper: "beyond the paper (telemetry feed layer & forecast fallback)",
		Run:   runDarkFeeds,
	})
}

// darkFeedsLanes defines the degradation ladder of the study. Explicit
// events (rather than a seeded Storm draw) keep the tables stable. The
// Section VII window runs slots 14-19 over 2 price feeds and 1 arrival
// feed.
func darkFeedsLanes() []struct {
	name   string
	faults *fault.Schedule
} {
	return []struct {
		name   string
		faults *fault.Schedule
	}{
		{"feeds-clean", nil},
		{"noisy", &fault.Schedule{Events: []fault.Event{
			{Kind: fault.FeedNoise, Feed: fault.FeedPrice, Center: 0, Factor: 0.25, From: 14, To: 19},
			{Kind: fault.FeedNoise, Feed: fault.FeedPrice, Center: 1, Factor: 0.25, From: 14, To: 19},
			{Kind: fault.FeedNoise, Feed: fault.FeedArrival, FrontEnd: 0, Factor: 0.25, From: 14, To: 19},
		}}},
		{"flaky", &fault.Schedule{Events: []fault.Event{
			{Kind: fault.FeedDropout, Feed: fault.FeedPrice, Center: 0, Factor: 0.95, From: 15, To: 17},
			{Kind: fault.FeedDropout, Feed: fault.FeedArrival, FrontEnd: 0, Factor: 0.9, From: 16, To: 18},
			{Kind: fault.FeedDelay, Feed: fault.FeedPrice, Center: 1, Factor: 100, From: 16, To: 17},
		}}},
		{"dark", &fault.Schedule{Events: []fault.Event{
			{Kind: fault.FeedLoss, Feed: fault.FeedPrice, Center: 0, From: 14, To: 19},
			{Kind: fault.FeedLoss, Feed: fault.FeedPrice, Center: 1, From: 14, To: 19},
			{Kind: fault.FeedLoss, Feed: fault.FeedArrival, FrontEnd: 0, From: 14, To: 19},
		}}},
	}
}

// runDarkFeeds replays the Section VII window with the planner's inputs
// routed through the telemetry feed layer at increasing levels of feed
// degradation, against the fault-free run as the reference. The "dark" lane
// is the acid test: every feed is permanently lost from the first slot,
// so the planner runs entirely on priors — the run must still complete
// and serve real load, because the priors are trace means and the
// committed plan is reconciled against actual arrivals.
func runDarkFeeds() (*Result, error) {
	ts := NewTwoLevelSetup()
	base := ts.Config()
	K := base.Sys.K()

	oracle, err := sim.Run(base, core.NewOptimized())
	if err != nil {
		return nil, err
	}
	oracleNet := oracle.TotalNetProfit()

	t := report.NewTable("Planning on degraded telemetry (14:00-19:00, feed layer on, optimized planner)",
		"lane", "net($)", "% of oracle", "completion", "feed tiers", "stale(avg)", "brk-open", "degraded")
	t.AddRow("oracle", report.F(oracleNet), report.Pct(1), report.Pct(completionMean(oracle, K)),
		"-", "-", "-", fmt.Sprintf("%d/%d", oracle.DegradedSlots(), len(oracle.Slots)))

	var dark *sim.Report
	for _, lane := range darkFeedsLanes() {
		cfg := base
		cfg.Faults = lane.faults
		cfg.Feeds = &feed.Config{Seed: 7}
		cfg.DegradeOnFailure = true
		var planner core.Planner
		if lane.name == "dark" {
			// With every feed on its prior the optimizer would be polishing
			// guesswork; the resilient chain escalates straight to a cheap
			// tier on unusable slots.
			chain := resilient.Wrap(core.NewOptimized())
			chain.EscalateOnDegraded = true
			planner = chain
		} else {
			planner = core.NewOptimized()
		}
		rep, err := sim.Run(cfg, planner)
		if err != nil {
			return nil, fmt.Errorf("lane %s: %w", lane.name, err)
		}
		if lane.name == "dark" {
			dark = rep
		}
		ratio := report.Frac(rep.TotalNetProfit(), oracleNet)
		t.AddRow(lane.name, report.F(rep.TotalNetProfit()), report.Pct(ratio),
			report.Pct(completionMean(rep, K)), rep.FeedTierMix(),
			fmt.Sprintf("%.2f", rep.MeanFeedStaleness()),
			fmt.Sprintf("%d", rep.BreakerOpenSlots()),
			fmt.Sprintf("%d/%d", rep.DegradedSlots(), len(rep.Slots)))
	}

	slots := report.NewTable("Per-slot feed health and fallback tier (dark lane)",
		"hour", "served", "price feeds", "arrival feed", "planner tier")
	for _, s := range dark.Slots {
		var pl []string
		for _, h := range s.Feeds.Prices {
			pl = append(pl, h.Label())
		}
		al := make([]string, 0, len(s.Feeds.Arrivals))
		for _, h := range s.Feeds.Arrivals {
			al = append(al, h.Label())
		}
		tier := "primary"
		if s.FallbackTier > 0 {
			tier = fmt.Sprintf("%d:%s", s.FallbackTier, s.FallbackName)
		} else if s.FallbackTier < 0 && s.FallbackName != "" {
			tier = s.FallbackName
		}
		slots.AddRow(fmt.Sprintf("%d", s.Slot), fmt.Sprintf("%.0f", s.Served()),
			strings.Join(pl, " "), strings.Join(al, " "), tier)
	}

	return &Result{
		ID: "rob3-darkfeeds", Title: "Degraded-telemetry robustness",
		Tables: []*report.Table{t, slots},
		Notes: []string{
			"feeds-clean matches the oracle lane exactly: with no feed faults every fetch is a first-attempt fresh sample, so the feed layer is a zero-cost pass-through",
			fmt.Sprintf("with every feed dark the run still completes and serves %.0f requests on trace-mean priors — stale-margin headroom plus reconciliation turn blind planning into conservative planning instead of a crash",
				totalServed(dark)),
			"the dark lane's breakers open after 2 failed slots and stay open (half-open probes keep failing against a permanently lost feed), so the transport stops burning its retry budget",
		},
	}, nil
}

// completionMean averages the per-type completion rate.
func completionMean(r *sim.Report, K int) float64 {
	var c float64
	for k := 0; k < K; k++ {
		c += r.CompletionRate(k)
	}
	return c / float64(K)
}

// totalServed sums served requests over the run.
func totalServed(r *sim.Report) float64 {
	var s float64
	for i := range r.Slots {
		s += r.Slots[i].Served()
	}
	return s
}
