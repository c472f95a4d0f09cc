package loadgen

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"profitlb/internal/cluster"
	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/dispatch"
	"profitlb/internal/fault"
	"profitlb/internal/feed"
	"profitlb/internal/market"
	"profitlb/internal/mpc"
	"profitlb/internal/obs"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

// testSystem is sized so the optimized planner serves every arrival:
// streams are fat (λ·T ≥ 5000), which keeps each lane's Poisson
// fluctuation far inside its token-bucket burst.
func testSystem() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 0.01, Deadline: 0.01}}),
				TransferCostPerMile: 1e-7},
			{Name: "batch", TUF: tuf.MustNew([]tuf.Level{
				{Utility: 0.05, Deadline: 0.05}, {Utility: 0.02, Deadline: 0.25}}),
				TransferCostPerMile: 2e-7},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "east", DistanceMiles: []float64{300, 2400}},
			{Name: "west", DistanceMiles: []float64{2500, 200}},
		},
		Centers: []datacenter.DataCenter{
			{Name: "tx", Servers: 8, Capacity: 1,
				ServiceRate: []float64{20000, 3000}, EnergyPerRequest: []float64{0.0003, 0.004}},
			{Name: "ca", Servers: 8, Capacity: 1,
				ServiceRate: []float64{18000, 3500}, EnergyPerRequest: []float64{0.0003, 0.0035}},
		},
	}
}

// testSimConfig uses constant traces: every slot offers the same fat
// streams, well inside capacity.
func testSimConfig(slots int) sim.Config {
	return sim.Config{
		Sys: testSystem(),
		Traces: []*workload.Trace{
			{Name: "east", Rates: [][]float64{{18000, 1500}}},
			{Name: "west", Rates: [][]float64{{15000, 1100}}},
		},
		Prices: []*market.PriceTrace{
			{Name: "tx", Prices: []float64{0.05}},
			{Name: "ca", Prices: []float64{0.08}},
		},
		Slots: slots,
	}
}

// driver builds the planning half of the stack: input source, planner
// and driver (instrumented when scope is non-nil).
func driver(t *testing.T, cfg sim.Config, planner core.Planner, scope *obs.Scope) (*dispatch.Driver, *sim.InputSource) {
	t.Helper()
	src, err := sim.NewInputSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gw := dispatch.NewGateway(cfg.Sys, testDispatch, scope)
	return &dispatch.Driver{Gateway: gw, Planner: planner, Source: src}, src
}

// testDispatch is the routing configuration every harness serves under.
var testDispatch = dispatch.Config{Seed: 11, SlotSeconds: 60}

// harness builds the full in-process stack around a lone gateway — a
// fleet of one observing the scenario's faults.
func harness(t *testing.T, cfg sim.Config, planner core.Planner, scope *obs.Scope) (*cluster.Fleet, *sim.InputSource) {
	t.Helper()
	d, src := driver(t, cfg, planner, scope)
	f, err := cluster.NewFleet(cfg.Sys, testDispatch, cluster.Config{}, d, cfg.Faults, scope)
	if err != nil {
		t.Fatal(err)
	}
	return f, src
}

// TestCleanScenario is the subsystem's acceptance gate: replaying a
// clean scenario, every fat lane's achieved rate lands within 5% of the
// planned λ and nothing is shed.
func TestCleanScenario(t *testing.T) {
	cfg := testSimConfig(3)
	f, src := harness(t, cfg, core.NewOptimized(), nil)
	rep, err := Run(f, src, Config{Seed: 1, Slots: cfg.Slots})
	if err != nil {
		t.Fatal(err)
	}
	offered, admitted, shed := rep.Totals()
	if offered == 0 {
		t.Fatal("no requests offered")
	}
	if shed != 0 {
		t.Fatalf("clean scenario shed %d of %d requests", shed, offered)
	}
	if admitted != offered {
		t.Fatalf("admitted %d of %d offered with zero shed", admitted, offered)
	}
	if e := rep.MaxLaneError(500); e > 0.05 {
		t.Fatalf("max lane rate error %.4f, want <= 0.05", e)
	}
	if rep.DegradedSlots() != 0 {
		t.Fatalf("%d degraded slots on the clean path", rep.DegradedSlots())
	}
	// Realized profit tracks the plan's prediction: same economics, the
	// only gap is Poisson noise on the admitted counts.
	got, want := rep.TotalNetProfit(), rep.TotalPlannedProfit()
	if want <= 0 {
		t.Fatalf("planned profit %g", want)
	}
	if diff := got/want - 1; diff < -0.05 || diff > 0.05 {
		t.Fatalf("realized profit %.2f vs planned %.2f (%.1f%% off)", got, want, 100*diff)
	}
}

// TestDeterministicReplay: the same scenario and seed reproduce the
// byte-identical report, including per-lane tallies.
func TestDeterministicReplay(t *testing.T) {
	run := func() []byte {
		cfg := testSimConfig(2)
		f, src := harness(t, cfg, core.NewOptimized(), nil)
		rep, err := Run(f, src, Config{Seed: 7, Slots: cfg.Slots, BurstFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same seed, different reports:\n%s\n%s", a, b)
	}
}

// TestSeedMatters: different arrival seeds produce different traffic.
func TestSeedMatters(t *testing.T) {
	offered := func(seed int64) int64 {
		cfg := testSimConfig(1)
		f, src := harness(t, cfg, core.NewOptimized(), nil)
		rep, err := Run(f, src, Config{Seed: seed, Slots: 1})
		if err != nil {
			t.Fatal(err)
		}
		n, _, _ := rep.Totals()
		return n
	}
	if offered(1) == offered(2) {
		t.Fatal("two seeds produced identical offered counts (suspicious)")
	}
}

// TestFaultStorm replays under center outages and price spikes with the
// resilient chain: the gateway must stay up for the whole horizon,
// degrade by shedding (never by erroring), and the dispatch counters
// must reconcile with the report.
func TestFaultStorm(t *testing.T) {
	cfg := testSimConfig(6)
	storm, err := fault.Storm(fault.StormConfig{
		Seed:    3,
		Slots:   cfg.Slots,
		Centers: cfg.Sys.L(), FrontEnds: cfg.Sys.S(),
		Outages: 2, OutageSlots: 2,
		Spikes: 2, SpikeFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = storm
	cfg.DegradeOnFailure = true
	reg := obs.NewRegistry()
	scope := obs.NewScope(reg, nil)
	f, src := harness(t, cfg, resilient.Wrap(core.NewOptimized()), scope)
	rep, err := Run(f, src, Config{Seed: 5, Slots: cfg.Slots})
	if err != nil {
		t.Fatalf("the gateway went down under the storm: %v", err)
	}
	if len(rep.Slots) != cfg.Slots {
		t.Fatalf("replayed %d of %d slots", len(rep.Slots), cfg.Slots)
	}
	offered, admitted, shed := rep.Totals()
	if offered == 0 || admitted == 0 {
		t.Fatalf("storm starved the replay: offered %d admitted %d", offered, admitted)
	}
	var invalid int64
	for i := range rep.Slots {
		invalid += rep.Slots[i].Invalid
	}
	if invalid != 0 {
		t.Fatalf("%d requests answered invalid; faults must shed, not error", invalid)
	}
	// The gateway's own counters saw exactly what the report tallied.
	cReq := scope.Counter("dispatch_requests_total").Value()
	cAdmit := scope.Counter("dispatch_admitted_total").Value()
	cShed := scope.Counter("dispatch_shed_total", obs.L("reason", "budget")).Value() +
		scope.Counter("dispatch_shed_total", obs.L("reason", "unplanned")).Value()
	if cReq != offered || cAdmit != admitted || cShed != shed {
		t.Fatalf("counters %d/%d/%d, report %d/%d/%d", cReq, cAdmit, cShed, offered, admitted, shed)
	}
}

// TestClosedLoop: the closed-loop generator produces traffic that is a
// function of the population and think time, and the gateway absorbs it.
func TestClosedLoop(t *testing.T) {
	cfg := testSimConfig(2)
	f, src := harness(t, cfg, core.NewOptimized(), nil)
	rep, err := Run(f, src, Config{Seed: 2, Slots: cfg.Slots, Closed: true, Users: 16})
	if err != nil {
		t.Fatal(err)
	}
	offered, _, _ := rep.Totals()
	if offered == 0 {
		t.Fatal("closed loop offered nothing")
	}
	for i := range rep.Slots {
		if rep.Slots[i].Invalid != 0 {
			t.Fatalf("slot %d: %d invalid answers", rep.Slots[i].Slot, rep.Slots[i].Invalid)
		}
	}
}

// TestReplayerRejectsRunawayLoad: a negative think time walks every
// closed-loop user backwards in time, so the slot never ends and the
// arrival list grows without bound (`loadtest -closed -think -1` used to
// hang); a NaN never compares past the slot's end either. The config is
// refused before anything is synthesized, by the name of the flag.
func TestReplayerRejectsRunawayLoad(t *testing.T) {
	cfg := testSimConfig(1)
	f, src := harness(t, cfg, core.NewOptimized(), nil)
	for name, c := range map[string]struct {
		cfg  Config
		flag string
	}{
		"negative think": {Config{Slots: 1, Closed: true, Users: 4, Think: -1}, "-think"},
		"NaN think":      {Config{Slots: 1, Closed: true, Think: math.NaN()}, "-think"},
		"infinite think": {Config{Slots: 1, Closed: true, Think: math.Inf(1)}, "-think"},
		"negative burst": {Config{Slots: 1, BurstFactor: -2}, "-burst-factor"},
		"NaN burst":      {Config{Slots: 1, BurstFactor: math.NaN()}, "-burst-factor"},
	} {
		_, err := newReplayer(c.cfg, f, src)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: error %v, want one naming %s", name, err, c.flag)
		}
	}
}

// TestBurstyArrivals: an MMPP with peak-to-mean 4 overruns the plan's
// slot-average budget in bursts, so the bucket sheds some load — that is
// the budget doing its job — but the replay completes and most traffic
// is still served.
func TestBurstyArrivals(t *testing.T) {
	cfg := testSimConfig(2)
	f, src := harness(t, cfg, core.NewOptimized(), nil)
	rep, err := Run(f, src, Config{Seed: 3, Slots: cfg.Slots, BurstFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	offered, _, _ := rep.Totals()
	if offered == 0 {
		t.Fatal("no bursty traffic offered")
	}
	if f := rep.ShedFraction(); f > 0.5 {
		t.Fatalf("shed fraction %.3f under bursts, want < 0.5", f)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := testSimConfig(1)
	f, src := harness(t, cfg, core.NewOptimized(), nil)
	if _, err := Run(nil, src, Config{Slots: 1}); err == nil {
		t.Fatal("nil fleet accepted")
	}
	if _, err := Run(f, src, Config{Slots: 0}); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := Run(f, src, Config{Slots: 1, Closed: true, Users: -1}); err == nil {
		t.Fatal("negative population accepted")
	}
}

// TestDriverEscalatesOnDarkFeeds is the regression test of the online
// feed-health hole: sim.Run was the only caller of ObserveFeedHealth, so
// a chain told to escalate on degraded inputs never did under the
// Driver. A dark arrival feed must now commit, online, the same
// non-primary tier sim.Run records for the slot — and a source that
// exposes only PlannerInput keeps forwarding nothing.
func TestDriverEscalatesOnDarkFeeds(t *testing.T) {
	cfg := testSimConfig(4)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedLoss, Feed: fault.FeedArrival, FrontEnd: 0, From: 0, To: 1},
	}}
	cfg.Feeds = &feed.Config{}
	cfg.DegradeOnFailure = true
	newChain := func() *resilient.Chain {
		chain := resilient.Wrap(core.NewOptimized())
		chain.EscalateOnDegraded = true
		return chain
	}
	want, err := sim.Run(cfg, newChain())
	if err != nil {
		t.Fatal(err)
	}
	f, src := harness(t, cfg, newChain(), nil)
	rep, err := Run(f, src, Config{Seed: 1, Slots: cfg.Slots})
	if err != nil {
		t.Fatal(err)
	}
	escalated := 0
	for i, sr := range want.Slots {
		got := rep.Slots[i]
		if got.Degraded != sr.Degraded || (sr.Degraded && got.Tier != sr.FallbackName) {
			t.Fatalf("slot %d: driver committed tier %q (degraded %v), sim.Run %q (degraded %v)",
				i, got.Tier, got.Degraded, sr.FallbackName, sr.Degraded)
		}
		if sr.FallbackTier > 0 {
			escalated++
		}
	}
	if escalated == 0 || escalated == len(want.Slots) {
		t.Fatalf("%d of %d slots escalated: the dark window should cover some slots, not all", escalated, len(want.Slots))
	}

	blind, src := driver(t, cfg, newChain(), nil)
	blind.Source = inputOnly{src}
	for i := 0; i < cfg.Slots; i++ {
		table, err := blind.PlanTable(i)
		if err != nil || table.Degraded {
			t.Fatalf("slot %d: a PlannerInput-only source escalated (degraded %v, err %v)", i, table.Degraded, err)
		}
	}
}

// TestMPCBehindAnInputOnlySourceSheds: a source exposing only PlannerInput
// cannot hand its feed layer to an MPC planner, and the planner has no
// forecaster of its own, so each slot whose window looks ahead degrades
// to the shed table with the missing forecast source named — it never
// plans on a forecast no other plane sees. The same planner behind the
// source itself plans every slot.
func TestMPCBehindAnInputOnlySourceSheds(t *testing.T) {
	cfg := testSimConfig(3)
	newMPC := func() core.Planner { return mpc.New(mpc.Config{Horizon: 3, MaxDefer: []int{0, 1}}) }
	blind, src := driver(t, cfg, newMPC(), nil)
	blind.Source = inputOnly{src}
	attached, _ := driver(t, cfg, newMPC(), nil)
	for i := 0; i < cfg.Slots; i++ {
		table, err := blind.PlanTable(i)
		if err != nil || !table.Degraded || table.Tier != "shed" || !errors.Is(blind.LastErr, mpc.ErrNoForecast) {
			t.Fatalf("slot %d: blind driver committed tier %q (degraded %v), err %v, LastErr %v; want the shed table and ErrNoForecast",
				i, table.Tier, table.Degraded, err, blind.LastErr)
		}
		if table, err = attached.PlanTable(i); err != nil || table.Degraded || attached.LastErr != nil {
			t.Fatalf("slot %d: attached driver degraded %v, err %v, LastErr %v", i, table.Degraded, err, attached.LastErr)
		}
	}
}

// inputOnly hides everything of a source but PlannerInput.
type inputOnly struct{ src *sim.InputSource }

func (s inputOnly) PlannerInput(abs int) (*core.Input, error) { return s.src.PlannerInput(abs) }
