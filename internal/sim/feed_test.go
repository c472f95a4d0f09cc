package sim

import (
	"reflect"
	"sync"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/fault"
	"profitlb/internal/feed"
	"profitlb/internal/resilient"
)

// TestFeedPathComposesWithLegacyFaults: legacy observation faults (price
// blackout) distort the value the feed transports, and the run still
// reconciles and completes.
func TestFeedPathComposesWithLegacyFaults(t *testing.T) {
	cfg := testConfig(6)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.PriceBlackout, Center: 0, From: 2, To: 3},
		{Kind: fault.FeedDropout, Feed: fault.FeedArrival, FrontEnd: 0, Factor: 1, From: 2, To: 2},
	}}
	cfg.Feeds = &feed.Config{Seed: 3}
	cfg.DegradeOnFailure = true
	rep, err := Run(cfg, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != 6 {
		t.Fatalf("run stopped early: %d slots", len(rep.Slots))
	}
	if rep.Slots[2].Feeds.Arrivals[0].Tier != feed.TierLKG {
		t.Fatalf("slot 2 arrival feed should fall to LKG, got %s", rep.Slots[2].Feeds.Arrivals[0].Tier)
	}
	if rep.FeedTierCounts()["lkg"] == 0 {
		t.Fatal("tier counts lost the degraded slot")
	}
}

// recordingPlanner wraps Balanced and records every input it saw, to
// compare observations across Compare lanes.
type recordingPlanner struct {
	core.Planner
	mu     sync.Mutex
	inputs []*core.Input
}

func (r *recordingPlanner) Plan(in *core.Input) (*core.Plan, error) {
	cp := &core.Input{Sys: in.Sys, Slot: in.Slot}
	cp.Prices = append([]float64(nil), in.Prices...)
	for _, row := range in.Arrivals {
		cp.Arrivals = append(cp.Arrivals, append([]float64(nil), row...))
	}
	r.mu.Lock()
	r.inputs = append(r.inputs, cp)
	r.mu.Unlock()
	return r.Planner.Plan(in)
}

// TestCompareLanesObserveIdenticalFeedSchedules: two planners under
// Compare must see byte-for-byte the same degraded prices and arrivals —
// each lane rebuilds its own feed Set from the same spec, and all
// randomness is per-(feed, slot) seeded.
func TestCompareLanesObserveIdenticalFeedSchedules(t *testing.T) {
	cfg := testConfig(8)
	sch, err := fault.Storm(fault.StormConfig{
		Seed: 11, Start: 0, Slots: 8, Centers: 2, FrontEnds: 2,
		FeedDropouts: 2, FeedNoises: 1, FeedDelays: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = sch
	cfg.Feeds = &feed.Config{Seed: 5}
	cfg.DegradeOnFailure = true
	a := &recordingPlanner{Planner: core.NewOptimized()}
	b := &recordingPlanner{Planner: core.NewLevelSearch()}
	reports, err := Compare(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.inputs) != 8 || len(b.inputs) != 8 {
		t.Fatalf("lanes saw %d/%d inputs, want 8/8", len(a.inputs), len(b.inputs))
	}
	for i := range a.inputs {
		if !reflect.DeepEqual(a.inputs[i].Prices, b.inputs[i].Prices) {
			t.Fatalf("slot %d: lanes observed different prices:\n%v\n%v", i, a.inputs[i].Prices, b.inputs[i].Prices)
		}
		if !reflect.DeepEqual(a.inputs[i].Arrivals, b.inputs[i].Arrivals) {
			t.Fatalf("slot %d: lanes observed different arrivals", i)
		}
	}
	// The recorded feed health must agree slot by slot too.
	for i := range reports[0].Slots {
		if !reflect.DeepEqual(reports[0].Slots[i].Feeds, reports[1].Slots[i].Feeds) {
			t.Fatalf("slot %d: lanes report different feed health", i)
		}
	}
}

// TestCompareReseedsFaultStormIdentically: the schedule itself is shared
// read-only, so two Compare lanes with the same planner type produce
// identical FaultsActive sequences.
func TestCompareReseedsFaultStormIdentically(t *testing.T) {
	cfg := testConfig(8)
	sch, err := fault.Storm(fault.StormConfig{
		Seed: 4, Start: 0, Slots: 8, Centers: 2, FrontEnds: 2,
		Outages: 1, Spikes: 1, FeedDropouts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = sch
	cfg.Feeds = &feed.Config{Seed: 9}
	cfg.DegradeOnFailure = true
	reports, err := Compare(cfg, core.NewOptimized(), core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reports[0].Slots, reports[1].Slots) {
		t.Fatal("identical planners under Compare diverged — fault/feed schedule is not lane-stable")
	}
}

// TestDarkFeedsStillServe: with every feed permanently lost from the
// first slot the run must complete on prior-tier estimates and serve
// nonzero load.
func TestDarkFeedsStillServe(t *testing.T) {
	cfg := testConfig(6)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedLoss, Feed: fault.FeedPrice, Center: 0, From: 0, To: 5},
		{Kind: fault.FeedLoss, Feed: fault.FeedPrice, Center: 1, From: 0, To: 5},
		{Kind: fault.FeedLoss, Feed: fault.FeedArrival, FrontEnd: 0, From: 0, To: 5},
		{Kind: fault.FeedLoss, Feed: fault.FeedArrival, FrontEnd: 1, From: 0, To: 5},
	}}
	cfg.Feeds = &feed.Config{}
	cfg.DegradeOnFailure = true
	rep, err := Run(cfg, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != 6 {
		t.Fatalf("dark run stopped early: %d slots", len(rep.Slots))
	}
	var served float64
	for i := range rep.Slots {
		served += rep.Slots[i].Served()
		if rep.Slots[i].Feeds.WorstTier() != feed.TierPrior {
			t.Fatalf("slot %d: expected prior tier, got %s", i, rep.Slots[i].Feeds.WorstTier())
		}
	}
	if served <= 0 {
		t.Fatal("dark feeds must still serve load from trace-mean priors")
	}
	if rep.BreakerOpenSlots() == 0 {
		t.Fatal("permanently lost feeds must open their breakers")
	}
	if rep.MeanFeedStaleness() <= 0 {
		t.Fatal("dark run must report positive staleness")
	}
}

// TestFeedEscalationSkipsPrimaryTier: a resilient chain with
// EscalateOnDegraded skips the optimizer on unusable slots and the
// simulator surfaces the fallback tier.
func TestFeedEscalationSkipsPrimaryTier(t *testing.T) {
	cfg := testConfig(4)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedLoss, Feed: fault.FeedArrival, FrontEnd: 0, From: 0, To: 3},
	}}
	cfg.Feeds = &feed.Config{}
	cfg.DegradeOnFailure = true
	chain := resilient.Wrap(core.NewOptimized())
	chain.EscalateOnDegraded = true
	rep, err := Run(cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Slots {
		if rep.Slots[i].FallbackTier != 1 {
			t.Fatalf("slot %d: expected escalation to tier 1, got %d (%s)",
				i, rep.Slots[i].FallbackTier, rep.Slots[i].FallbackName)
		}
		if !rep.Slots[i].Degraded {
			t.Fatalf("slot %d: escalated slot must be marked degraded", i)
		}
	}
	dec := chain.LastDecision()
	if len(dec.Attempts) == 0 || dec.Attempts[0].Reason != resilient.ReasonDegradedInputs {
		t.Fatalf("first attempt should record degraded-inputs, got %+v", dec.Attempts)
	}
}

// TestCompletionRateZeroOffered is the regression test of the
// zero-offered-load guard: no load offered means 0 completion, not 1 and
// not NaN.
func TestCompletionRateZeroOffered(t *testing.T) {
	rep := &Report{Slots: []SlotReport{
		{OfferedByType: []float64{0, 100}, ServedByType: []float64{0, 50}},
		{OfferedByType: []float64{0, 100}, ServedByType: []float64{0, 70}},
	}}
	if got := rep.CompletionRate(0); got != 0 {
		t.Fatalf("zero offered load: completion %g, want 0", got)
	}
	if got := rep.CompletionRate(1); got != 0.6 {
		t.Fatalf("completion %g, want 0.6", got)
	}
	empty := &Report{}
	if got := empty.CompletionRate(0); got != 0 {
		t.Fatalf("empty report: completion %g, want 0", got)
	}
}
