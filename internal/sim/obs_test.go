package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/fault"
	"profitlb/internal/feed"
	"profitlb/internal/obs"
	"profitlb/internal/resilient"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// obsStormSchedule is the deterministic storm the obs tests run under:
// an outage, a price spike overlapping it, two synchronous planner
// faults (error, panic — no timeouts, so every event is emitted in
// program order), and a total price-feed dropout that walks the feed
// down the estimator chain and opens its breaker.
func obsStormSchedule() *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{
		{Kind: fault.CenterOutage, Center: 1, From: 1, To: 2},
		{Kind: fault.PriceSpike, Center: 0, Factor: 2, From: 2, To: 3},
		{Kind: fault.PlannerError, From: 2, To: 2},
		{Kind: fault.PlannerPanic, From: 4, To: 4},
		{Kind: fault.FeedDropout, Feed: fault.FeedPrice, Center: 0, Factor: 1, From: 3, To: 4},
	}}
}

// obsStormPlanner builds the planner lane for the obs storm: the
// primary optimizer behind a fault injector, inside a two-tier resilient
// chain. A nil scope builds the identical uninstrumented lane.
func obsStormPlanner(sched *fault.Schedule, sc *obs.Scope) core.Planner {
	prim := core.NewOptimized()
	prim.Obs = sc
	chain := resilient.New(&fault.Injector{Planner: prim, Sched: sched}, baseline.NewBalanced())
	chain.Obs = sc
	return chain
}

// TestObsRunBitIdentical is the acceptance gate of the observability
// layer: a run with a scope attached must commit the exact same report
// — plans, dollars, fallback tiers, feed health — as the same run
// without one, on both a clean and a faulted horizon.
func TestObsRunBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"clean", func() Config {
			cfg := testConfig(6)
			cfg.KeepPlans = true
			return cfg
		}},
		{"faulted-with-feeds", func() Config {
			cfg := testConfig(6)
			cfg.KeepPlans = true
			cfg.Faults = obsStormSchedule()
			cfg.Feeds = &feed.Config{}
			cfg.DegradeOnFailure = true
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			plain, err := Run(cfg, obsStormPlanner(cfg.Faults, nil))
			if err != nil {
				t.Fatal(err)
			}
			sc := obs.NewScope(obs.NewRegistry(), &obs.Collector{})
			cfg.Obs = sc
			watched, err := Run(cfg, obsStormPlanner(cfg.Faults, sc))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, watched) {
				t.Fatal("observed run's report differs from the unobserved run")
			}
			if tc.name == "clean" {
				return
			}
			// Sanity: the scope actually saw the storm.
			col := sc.Trace.(*obs.Collector)
			if col.Len() == 0 {
				t.Fatal("collector saw no events on a faulted run")
			}
		})
	}
}

// decRecorder drives a resilient chain and keeps every slot's structured
// Decision, so the test can line the chain's own record up against the
// trace events the scope collected.
type decRecorder struct {
	*resilient.Chain
	decs []resilient.Decision
}

func (d *decRecorder) Plan(in *core.Input) (*core.Plan, error) {
	p, err := d.Chain.Plan(in)
	d.decs = append(d.decs, d.Chain.LastDecision())
	return p, err
}

// TestObsEscalationsHaveTraceEvents asserts the issue's acceptance
// criterion: every tier rejection the chain records in a Decision has a
// matching escalation trace event (same slot, planner, reason), and the
// scope saw no escalations the chain did not record.
func TestObsEscalationsHaveTraceEvents(t *testing.T) {
	cfg := testConfig(6)
	cfg.Faults = obsStormSchedule()
	cfg.Feeds = &feed.Config{}
	cfg.DegradeOnFailure = true
	col := &obs.Collector{}
	sc := obs.NewScope(obs.NewRegistry(), col)
	cfg.Obs = sc
	rec := &decRecorder{Chain: obsStormPlanner(cfg.Faults, sc).(*resilient.Chain)}
	if _, err := Run(cfg, rec); err != nil {
		t.Fatal(err)
	}

	type key struct {
		slot    int
		planner string
		reason  string
	}
	want := map[key]int{}
	var rejections int
	for _, dec := range rec.decs {
		for _, at := range dec.Attempts {
			if at.Reason == "" {
				continue // the committed attempt, not a rejection
			}
			want[key{dec.Slot, at.Planner, string(at.Reason)}]++
			rejections++
		}
	}
	if rejections == 0 {
		t.Fatal("storm produced no tier rejections; the test is vacuous")
	}
	got := map[key]int{}
	var escalations int
	for _, ev := range col.Events() {
		if ev.Kind != obs.KindEscalation {
			continue
		}
		got[key{ev.Slot, ev.Planner, ev.Reason}]++
		escalations++
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("escalation events do not match the chain's decisions:\nchain: %v\ntrace: %v", want, got)
	}
	if escalations != rejections {
		t.Fatalf("escalation events = %d, chain rejections = %d", escalations, rejections)
	}
	// The by-reason counters must agree with the same tally.
	snap := sc.Metrics.Snapshot()
	var counted int64
	for id, v := range snap.Counters {
		if len(id) >= len("resilient_escalations_total") && id[:len("resilient_escalations_total")] == "resilient_escalations_total" {
			counted += v
		}
	}
	if counted != int64(rejections) {
		t.Fatalf("resilient_escalations_total = %d, want %d", counted, rejections)
	}
}

// strippedEvent is an Event reduced to its identity fields: Values
// carries wall-clock measurements (elapsed milliseconds, LP counters),
// which would make a golden file flaky.
type strippedEvent struct {
	Kind      string `json:"kind"`
	Slot      int    `json:"slot"`
	Planner   string `json:"planner,omitempty"`
	Tier      int    `json:"tier,omitempty"`
	TierName  string `json:"tierName,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Err       string `json:"err,omitempty"`
	Feed      string `json:"feed,omitempty"`
	FeedTier  string `json:"feedTier,omitempty"`
	Breaker   string `json:"breaker,omitempty"`
	Staleness int    `json:"staleness,omitempty"`
}

// TestObsTraceGolden pins the full event stream of the storm run — the
// slot lifecycle, engine summaries, escalations, tier commits and feed
// transitions, in emission order — against a golden file. Run with
// -update to rewrite it after an intentional schema change.
func TestObsTraceGolden(t *testing.T) {
	cfg := testConfig(6)
	cfg.Faults = obsStormSchedule()
	cfg.Feeds = &feed.Config{}
	cfg.DegradeOnFailure = true
	col := &obs.Collector{}
	sc := obs.NewScope(nil, col)
	cfg.Obs = sc
	if _, err := Run(cfg, obsStormPlanner(cfg.Faults, sc)); err != nil {
		t.Fatal(err)
	}
	events := col.Events()
	stripped := make([]strippedEvent, len(events))
	for i, ev := range events {
		stripped[i] = strippedEvent{
			Kind: string(ev.Kind), Slot: ev.Slot, Planner: ev.Planner,
			Tier: ev.Tier, TierName: ev.TierName, Reason: ev.Reason, Err: ev.Err,
			Feed: ev.Feed, FeedTier: ev.FeedTier, Breaker: ev.Breaker, Staleness: ev.Staleness,
		}
	}
	got, err := json.MarshalIndent(stripped, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "obs_trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim/ -run TestObsTraceGolden -update` to create it)", err)
	}
	if string(want) != string(got) {
		t.Fatalf("trace stream drifted from the golden file (re-run with -update if intentional)\ngot:\n%s", got)
	}
}
