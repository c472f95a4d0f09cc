package resilient_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/exp"
	"profitlb/internal/fault"
	"profitlb/internal/market"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

func testSystem() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "r1", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.2}}), TransferCostPerMile: 0.0005},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "fe1", DistanceMiles: []float64{150, 1100}},
		},
		Centers: []datacenter.DataCenter{
			{Name: "dc1", Servers: 5, Capacity: 1, ServiceRate: []float64{120}, EnergyPerRequest: []float64{1.0}},
			{Name: "dc2", Servers: 5, Capacity: 1, ServiceRate: []float64{130}, EnergyPerRequest: []float64{0.9}},
		},
	}
}

func testInput(slot int) *core.Input {
	return &core.Input{
		Sys:      testSystem(),
		Arrivals: [][]float64{{200}},
		Prices:   []float64{30, 35},
		Slot:     slot,
	}
}

// misbehaver is a scriptable planner: it fails in a chosen mode, or
// delegates to a real baseline when well-behaved.
type misbehaver struct {
	name string
	mode string // "", "error", "panic", "hang", "infeasible"
	hang time.Duration
}

func (m *misbehaver) Name() string { return m.name }
func (m *misbehaver) Plan(in *core.Input) (*core.Plan, error) {
	switch m.mode {
	case "error":
		return nil, errors.New("scripted failure")
	case "panic":
		panic("scripted panic")
	case "hang":
		time.Sleep(m.hang)
		return baseline.NewBalanced().Plan(in)
	case "infeasible":
		// A plan that claims dispatch with every server off.
		p := core.NewPlan(in.Sys)
		p.Rate[0][0][0][0] = 50
		p.Phi[0][0][0] = 1
		return p, nil
	default:
		return baseline.NewBalanced().Plan(in)
	}
}

func TestTierOrderAndTaxonomy(t *testing.T) {
	// Each tier fails in a distinct mode; the chain must walk them in
	// order, classify every rejection, and commit the first healthy tier.
	cases := []struct {
		name       string
		modes      []string
		wantTier   int
		wantName   string
		wantReason []resilient.Reason
	}{
		{"primary healthy", []string{"", "error"}, 0, "t0", nil},
		{"error falls through", []string{"error", ""}, 1, "t1",
			[]resilient.Reason{resilient.ReasonError}},
		{"panic falls through", []string{"panic", ""}, 1, "t1",
			[]resilient.Reason{resilient.ReasonPanic}},
		{"hang times out", []string{"hang", ""}, 1, "t1",
			[]resilient.Reason{resilient.ReasonTimeout}},
		{"infeasible rejected", []string{"infeasible", ""}, 1, "t1",
			[]resilient.Reason{resilient.ReasonInfeasible}},
		{"full ladder timeout,error,panic,infeasible", []string{"hang", "error", "panic", "infeasible", ""}, 4, "t4",
			[]resilient.Reason{resilient.ReasonTimeout, resilient.ReasonError, resilient.ReasonPanic, resilient.ReasonInfeasible}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tiers := make([]core.Planner, len(c.modes))
			for i, mode := range c.modes {
				tiers[i] = &misbehaver{name: "t" + string(rune('0'+i)), mode: mode, hang: 200 * time.Millisecond}
			}
			chain := resilient.New(tiers...)
			chain.Timeout = 20 * time.Millisecond
			plan, err := chain.Plan(testInput(0))
			if err != nil {
				t.Fatalf("chain errored: %v", err)
			}
			if plan == nil {
				t.Fatal("no plan committed")
			}
			dec := chain.LastDecision()
			if dec.Tier != c.wantTier || dec.TierName != c.wantName {
				t.Fatalf("committed tier %d (%s), want %d (%s)", dec.Tier, dec.TierName, c.wantTier, c.wantName)
			}
			if dec.Degraded != (c.wantTier > 0) {
				t.Fatalf("Degraded = %v at tier %d", dec.Degraded, dec.Tier)
			}
			for i, want := range c.wantReason {
				if dec.Attempts[i].Reason != want {
					t.Fatalf("attempt %d reason %q, want %q", i, dec.Attempts[i].Reason, want)
				}
			}
			if got := dec.Attempts[len(dec.Attempts)-1].Reason; got != "" {
				t.Fatalf("committed attempt carries rejection %q", got)
			}
		})
	}
}

func TestAllTiersDeadEndsInShed(t *testing.T) {
	chain := resilient.New(&misbehaver{name: "t0", mode: "error"}) // fresh: no plan to replay either
	in := testInput(0)
	plan, err := chain.Plan(in)
	if err != nil {
		t.Fatalf("chain errored: %v", err)
	}
	dec := chain.LastDecision()
	if dec.TierName != "shed" || dec.Tier != 2 {
		t.Fatalf("terminal tier = %d (%s), want 2 (shed)", dec.Tier, dec.TierName)
	}
	if !dec.Degraded {
		t.Fatal("shed slot not marked degraded")
	}
	for k := range plan.Rate {
		for s := range in.Arrivals {
			if plan.ServedFrom(k, s) != 0 {
				t.Fatal("shed plan serves load")
			}
		}
	}
	if err := core.Verify(in, plan, 1e-6); err != nil {
		t.Fatalf("shed plan infeasible: %v", err)
	}
}

func TestReplayScalesToSurvivingCapacity(t *testing.T) {
	// Slot 0 commits a healthy plan; slot 1 the only tier dies and the
	// topology has lost servers, so the chain must replay the last plan
	// scaled down to the surviving fleet.
	flaky := &misbehaver{name: "t0"}
	chain := resilient.New(flaky)
	in0 := testInput(0)
	if _, err := chain.Plan(in0); err != nil {
		t.Fatal(err)
	}
	flaky.mode = "error"
	in1 := testInput(1)
	in1.Sys.Centers[0].Servers = 2 // degraded: 5 → 2
	plan, err := chain.Plan(in1)
	if err != nil {
		t.Fatalf("chain errored: %v", err)
	}
	dec := chain.LastDecision()
	if dec.TierName != "replay" {
		t.Fatalf("committed %q, want replay", dec.TierName)
	}
	if plan.ServersOn[0] > 2 {
		t.Fatalf("replay powers %d servers at the degraded center", plan.ServersOn[0])
	}
	if err := core.Verify(in1, plan, 1e-6); err != nil {
		t.Fatalf("replayed plan infeasible: %v", err)
	}
	// Replay also respects a shrunken arrival budget.
	flaky.mode = ""
	if _, err := chain.Plan(testInput(2)); err != nil {
		t.Fatal(err)
	}
	flaky.mode = "error"
	in3 := testInput(3)
	in3.Arrivals[0][0] = 40 // far below what slot 2 committed
	plan, err = chain.Plan(in3)
	if err != nil {
		t.Fatal(err)
	}
	if chain.LastDecision().TierName != "replay" {
		t.Fatalf("committed %q, want replay", chain.LastDecision().TierName)
	}
	if got := plan.ServedFrom(0, 0); got > 40+1e-9 {
		t.Fatalf("replay dispatches %g beyond the %g offered", got, 40.0)
	}
}

func TestChainDeterministic(t *testing.T) {
	// Two identical chains over identical slot sequences commit identical
	// plans and identical decisions (Elapsed aside — it is wall-clock).
	run := func() (*core.Plan, resilient.Decision) {
		chain := resilient.New(
			&misbehaver{name: "t0", mode: "error"},
			core.NewLevelSearch(),
		)
		plan, err := chain.Plan(testInput(5))
		if err != nil {
			t.Fatal(err)
		}
		return plan, chain.LastDecision()
	}
	p1, d1 := run()
	p2, d2 := run()
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same inputs, different plans")
	}
	for i := range d1.Attempts {
		d1.Attempts[i].Elapsed = 0
		d2.Attempts[i].Elapsed = 0
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("same inputs, different decisions:\n%+v\n%+v", d1, d2)
	}
}

func TestWrapSkipsDuplicateTiers(t *testing.T) {
	chain := resilient.Wrap(baseline.NewBalanced())
	if len(chain.Tiers) != 2 {
		t.Fatalf("balanced-primary chain has %d tiers, want 2 (balanced not duplicated)", len(chain.Tiers))
	}
	chain = resilient.Wrap(nil)
	if len(chain.Tiers) != 3 || chain.Name() != "resilient/optimized" {
		t.Fatalf("default chain: %d tiers, name %q", len(chain.Tiers), chain.Name())
	}
}

func TestEmptyAndInvalid(t *testing.T) {
	chain := resilient.New()
	if _, err := chain.Plan(testInput(0)); err == nil {
		t.Fatal("empty chain accepted")
	}
	chain = resilient.New(&misbehaver{name: "t0"})
	bad := testInput(0)
	bad.Prices = nil
	if _, err := chain.Plan(bad); err == nil {
		t.Fatal("invalid input accepted")
	}
}

// simConfig builds a 4-slot simulation over the shared test system.
func simConfig(slots int) sim.Config {
	base := workload.WorldCupLike(workload.WorldCupConfig{Seed: 3, Base: 150})
	return sim.Config{
		Sys:    testSystem(),
		Traces: []*workload.Trace{workload.ShiftTypes("fe1", base, 1, 1)},
		Prices: []*market.PriceTrace{market.Houston(), market.MountainView()},
		Slots:  slots,
	}
}

func TestFallbackTierRecordedInReport(t *testing.T) {
	// A planner-error injected at slot 2 must surface in the sim report as
	// FallbackTier 1 on exactly that slot, with the tier's name attached.
	sch := &fault.Schedule{Events: []fault.Event{{Kind: fault.PlannerError, From: 2, To: 2}}}
	cfg := simConfig(4)
	cfg.Faults = sch
	cfg.DegradeOnFailure = true
	chain := resilient.Wrap(&fault.Injector{Planner: core.NewOptimized(), Sched: sch})
	rep, err := sim.Run(cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != 4 {
		t.Fatalf("horizon aborted at %d slots", len(rep.Slots))
	}
	for i, sr := range rep.Slots {
		if i == 2 {
			if sr.FallbackTier != 1 || !sr.Degraded {
				t.Fatalf("slot 2: tier %d degraded %v, want 1/true", sr.FallbackTier, sr.Degraded)
			}
			if sr.FallbackName != "level-search/greedy" {
				t.Fatalf("slot 2: fallback name %q", sr.FallbackName)
			}
			continue
		}
		if sr.FallbackTier != 0 || sr.Degraded {
			t.Fatalf("slot %d: tier %d degraded %v, want primary", i, sr.FallbackTier, sr.Degraded)
		}
	}
	if got := rep.DegradedSlots(); got != 1 {
		t.Fatalf("DegradedSlots = %d", got)
	}
	if acts := rep.FallbackActivations(); acts["level-search/greedy"] != 1 {
		t.Fatalf("activations = %v", acts)
	}
}

func TestSimReproducibleUnderFaults(t *testing.T) {
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.CenterOutage, Center: 1, From: 1, To: 2},
		{Kind: fault.PlannerPanic, From: 3, To: 3},
	}}
	run := func() *sim.Report {
		cfg := simConfig(5)
		cfg.Faults = sch
		cfg.DegradeOnFailure = true
		chain := resilient.Wrap(&fault.Injector{Planner: core.NewOptimized(), Sched: sch})
		rep, err := sim.Run(cfg, chain)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical fault schedules produced different reports")
	}
}

// TestShedDoesNotPoisonReplay covers the fail → shed → recover → fail →
// replay sequence: committing the shed plan used to overwrite the
// chain's replay memory with an empty plan, so every later failure
// could only "replay" zero dispatch even though a perfectly good plan
// had been committed earlier in the horizon.
func TestShedDoesNotPoisonReplay(t *testing.T) {
	flaky := &misbehaver{name: "t0"}
	chain := resilient.New(flaky)

	// Slot 0: healthy; commits a dispatching plan the chain should remember.
	if _, err := chain.Plan(testInput(0)); err != nil {
		t.Fatal(err)
	}

	// Slot 1: the planner fails AND the fleet is so degraded that replaying
	// the slot-0 plan fails verification — the chain must shed.
	flaky.mode = "error"
	in1 := testInput(1)
	in1.Sys.Centers[0].ServiceRate[0] *= 0.01
	in1.Sys.Centers[1].ServiceRate[0] *= 0.01
	if _, err := chain.Plan(in1); err != nil {
		t.Fatal(err)
	}
	if got := chain.LastDecision().TierName; got != "shed" {
		t.Fatalf("degraded slot committed %q, want shed", got)
	}

	// Slot 2: fleet recovered, planner still down. Replay must bring back
	// the slot-0 plan — before the fix the shed commit had erased it and
	// the chain replayed emptiness here.
	plan, err := chain.Plan(testInput(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := chain.LastDecision().TierName; got != "replay" {
		t.Fatalf("recovered slot committed %q, want replay", got)
	}
	if got := plan.Served(0); got < 100 {
		t.Fatalf("replay serves %g, want the slot-0 plan's dispatch back", got)
	}

	// Slots 3–4: a healthy commit refreshes the memory, and the next
	// failure replays that newer plan.
	flaky.mode = ""
	if _, err := chain.Plan(testInput(3)); err != nil {
		t.Fatal(err)
	}
	flaky.mode = "error"
	plan, err = chain.Plan(testInput(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := chain.LastDecision().TierName; got != "replay" || plan.Served(0) < 100 {
		t.Fatalf("post-recovery failure committed %q serving %g, want a replay of the slot-3 plan", got, plan.Served(0))
	}
}

// TestChainsOnTwoGoroutinesAgree drives two chains with an optimizer as
// fallback tier concurrently (one chain per goroutine, per the
// single-caller contract) and checks every committed plan is identical to
// those of a chain run alone. Under `make race` this is the proof that
// chains and the planners under them share no state.
func TestChainsOnTwoGoroutinesAgree(t *testing.T) {
	runChain := func() []*core.Plan {
		prim := &misbehaver{name: "t0"}
		chain := resilient.New(prim, core.NewOptimized())
		var plans []*core.Plan
		for slot := 0; slot < 4; slot++ {
			prim.mode = ""
			if slot%2 == 1 {
				prim.mode = "error" // odd slots fall through to the optimizer
			}
			plan, err := chain.Plan(testInput(slot))
			if err != nil {
				t.Errorf("slot %d: %v", slot, err)
				return nil
			}
			plans = append(plans, plan)
		}
		return plans
	}
	alone := runChain()
	results := make([][]*core.Plan, 2)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = runChain()
		}(g)
	}
	wg.Wait()
	for g, plans := range results {
		if !reflect.DeepEqual(plans, alone) {
			t.Fatalf("goroutine %d: its chain diverged from the chain run alone", g)
		}
	}
}

// tracked reports every finished Plan call of the tier it wraps, so a
// test can wait for tier goroutines the chain abandoned.
type tracked struct {
	core.Planner
	finished chan<- struct{}
}

func (p *tracked) Plan(in *core.Input) (*core.Plan, error) {
	defer func() { p.finished <- struct{}{} }()
	return p.Planner.Plan(in)
}

// TestAbandonedTierDoesNotRaceNextSlot is the -race regression for the
// chain's deadline: a tier that overruns Timeout keeps computing after
// the chain has moved on, so the next slot's Plan on the same warm
// planner starts while the previous one is still solving. The straggler
// owns the planner's warm state and Stats sink until it finishes; the
// live call must plan without them. A day of slots under a deadline no
// LP-backed tier can meet, then wait for every straggler.
func TestAbandonedTierDoesNotRaceNextSlot(t *testing.T) {
	cfg := exp.NewTwoLevelSetup().Config()
	cfg.StartSlot, cfg.Slots = 0, 24
	src, err := sim.NewInputSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.NewOptimized()
	opt.Stats = &core.SearchStats{}
	chain := resilient.Wrap(opt)
	chain.Timeout = time.Microsecond
	finished := make(chan struct{}, 3*cfg.Slots) // one send per tier invocation
	for i, tier := range chain.Tiers {
		chain.Tiers[i] = &tracked{Planner: tier, finished: finished}
	}
	invoked, timeouts := 0, 0
	var in *core.Input
	for slot := 0; slot < cfg.Slots; slot++ {
		in, err = src.PlannerInput(slot)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := chain.Plan(in)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if err := core.Verify(in, plan, 1e-6); err != nil {
			t.Fatalf("slot %d: committed plan infeasible: %v", slot, err)
		}
		for _, at := range chain.LastDecision().Attempts {
			if at.Planner == "replay" {
				continue
			}
			invoked++
			if at.Reason == resilient.ReasonTimeout {
				timeouts++
			}
		}
	}
	if timeouts == 0 {
		t.Fatal("no tier overran the deadline; the test exercised nothing")
	}
	for i := 0; i < invoked; i++ {
		select {
		case <-finished:
		case <-time.After(time.Minute):
			t.Fatalf("straggler %d of %d never finished", i+1, invoked)
		}
	}
	// With every straggler gone the planner owns its warm state again.
	for i := 0; i < 2; i++ {
		if _, err := opt.Plan(in); err != nil {
			t.Fatal(err)
		}
	}
	if opt.Stats.Solves == 0 || opt.Stats.WarmHits == 0 {
		t.Fatalf("planner did not recover its warm state: %+v", *opt.Stats)
	}
}
