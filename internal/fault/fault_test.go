package fault

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/market"
	"profitlb/internal/tuf"
)

func twoCenterSystem() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "r1", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.2}}), TransferCostPerMile: 0.0005},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "fe1", DistanceMiles: []float64{100, 900}},
		},
		Centers: []datacenter.DataCenter{
			{Name: "dc1", Servers: 8, Capacity: 1, ServiceRate: []float64{120}, EnergyPerRequest: []float64{1.0}},
			{Name: "dc2", Servers: 6, Capacity: 1, ServiceRate: []float64{130}, EnergyPerRequest: []float64{0.9}},
		},
	}
}

func TestEventActive(t *testing.T) {
	e := Event{Kind: CenterOutage, From: 3, To: 5}
	for slot, want := range map[int]bool{2: false, 3: true, 4: true, 5: true, 6: false} {
		if e.Active(slot) != want {
			t.Errorf("Active(%d) = %v, want %v", slot, !want, want)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"bad range", Event{Kind: CenterOutage, From: 5, To: 3}, "slot range"},
		{"negative from", Event{Kind: CenterOutage, From: -1, To: 3}, "slot range"},
		{"outage center oob", Event{Kind: CenterOutage, Center: 2}, "targets center"},
		{"degrade factor 1", Event{Kind: CenterDegrade, Factor: 1}, "factor in [0,1)"},
		{"spike factor 0", Event{Kind: PriceSpike}, "positive factor"},
		{"drop frontend oob", Event{Kind: TraceDrop, FrontEnd: 1}, "front-end"},
		{"corrupt negative", Event{Kind: TraceCorrupt, Factor: -1}, "non-negative"},
		{"unknown kind", Event{Kind: "meteor-strike"}, "unknown kind"},
	}
	for _, c := range cases {
		sch := &Schedule{Events: []Event{c.ev}}
		err := sch.Validate(2, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want containing %q", c.name, err, c.want)
		}
	}
	good := &Schedule{Events: []Event{
		{Kind: CenterOutage, Center: 1, From: 2, To: 4},
		{Kind: CenterDegrade, Center: 0, Factor: 0.5, From: 1, To: 1},
		{Kind: PriceSpike, Center: 0, Factor: 2, From: 0, To: 3},
		{Kind: PriceBlackout, Center: 1, From: 2, To: 2},
		{Kind: TraceDrop, FrontEnd: 0, From: 0, To: 0},
		{Kind: TraceCorrupt, FrontEnd: 0, Factor: 1.5, From: 1, To: 2},
		{Kind: PlannerTimeout, From: 0, To: 0},
		{Kind: PlannerError, From: 1, To: 1},
		{Kind: PlannerPanic, From: 2, To: 2},
	}}
	if err := good.Validate(2, 1); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	var nilSch *Schedule
	if err := nilSch.Validate(2, 1); err != nil {
		t.Fatalf("nil schedule rejected: %v", err)
	}
	if !nilSch.Empty() {
		t.Fatal("nil schedule not empty")
	}
}

func TestEffectiveSystem(t *testing.T) {
	sys := twoCenterSystem()
	sch := &Schedule{Events: []Event{
		{Kind: CenterOutage, Center: 1, From: 3, To: 5},
		{Kind: CenterDegrade, Center: 0, Factor: 0.5, From: 5, To: 6},
	}}
	// No capacity fault active: the same pointer comes back, untouched.
	eff, faulted := sch.EffectiveSystem(sys, 0)
	if faulted || eff != sys {
		t.Fatal("clean slot should return the original system")
	}
	// Outage zeroes the targeted center on a clone.
	eff, faulted = sch.EffectiveSystem(sys, 4)
	if !faulted || eff == sys {
		t.Fatal("outage slot should clone")
	}
	if eff.Centers[1].Servers != 0 || eff.Centers[0].Servers != 8 {
		t.Fatalf("servers = %d/%d, want 8/0", eff.Centers[0].Servers, eff.Centers[1].Servers)
	}
	if sys.Centers[1].Servers != 6 {
		t.Fatal("original system mutated")
	}
	if err := eff.Validate(); err != nil {
		t.Fatalf("offline topology invalid: %v", err)
	}
	// Overlap slot: outage and degrade both fire; floor(8×0.5)=4 survives
	// at center 0, zero at center 1.
	eff, _ = sch.EffectiveSystem(sys, 5)
	if eff.Centers[0].Servers != 4 || eff.Centers[1].Servers != 0 {
		t.Fatalf("servers = %d/%d, want 4/0", eff.Centers[0].Servers, eff.Centers[1].Servers)
	}
}

func TestPriceSpikeAndBlackout(t *testing.T) {
	tr := &market.PriceTrace{Name: "flat", Prices: []float64{10, 20, 30, 40, 50}}
	sch := &Schedule{Events: []Event{
		{Kind: PriceSpike, Center: 0, Factor: 2, From: 2, To: 3},
		{Kind: PriceBlackout, Center: 0, From: 3, To: 4},
	}}
	// Spikes are real: both sides of the market see them.
	if got := sch.TruePrice(tr, 0, 2); got != 60 {
		t.Fatalf("true price at 2 = %g, want 60", got)
	}
	if got := sch.ObservedPrice(tr, 0, 2); got != 60 {
		t.Fatalf("observed price at 2 = %g, want 60", got)
	}
	// Blackout stalls only the planner's feed: observation holds the last
	// pre-stall price (slot 2, spiked), settlement uses the true price.
	if got := sch.ObservedPrice(tr, 0, 3); got != 60 {
		t.Fatalf("observed price at 3 = %g, want stale 60", got)
	}
	if got := sch.ObservedPrice(tr, 0, 4); got != 60 {
		t.Fatalf("observed price at 4 = %g, want stale 60", got)
	}
	if got := sch.TruePrice(tr, 0, 4); got != 50 {
		t.Fatalf("true price at 4 = %g, want 50", got)
	}
	// Other centers are unaffected.
	if got := sch.ObservedPrice(tr, 1, 3); got != 40 {
		t.Fatalf("center 1 observed at 3 = %g, want 40", got)
	}
	// A blackout reaching slot 0 pins the feed to the raw slot-0 price.
	pin := &Schedule{Events: []Event{{Kind: PriceBlackout, Center: 0, From: 0, To: 2}}}
	if got := pin.ObservedPrice(tr, 0, 2); got != 10 {
		t.Fatalf("pinned observed = %g, want 10", got)
	}
}

func TestObservedArrival(t *testing.T) {
	sch := &Schedule{Events: []Event{
		{Kind: TraceDrop, FrontEnd: 0, From: 1, To: 1},
		{Kind: TraceCorrupt, FrontEnd: 1, Factor: 1.5, From: 1, To: 2},
	}}
	if got := sch.ObservedArrival(100, 0, 0); got != 100 {
		t.Fatalf("clean slot reading = %g", got)
	}
	if got := sch.ObservedArrival(100, 0, 1); got != 0 {
		t.Fatalf("dropped reading = %g, want 0", got)
	}
	if got := sch.ObservedArrival(100, 1, 2); got != 150 {
		t.Fatalf("corrupted reading = %g, want 150", got)
	}
	if !sch.ArrivalsFaulted(1) || sch.ArrivalsFaulted(0) || sch.ArrivalsFaulted(3) {
		t.Fatal("ArrivalsFaulted windows wrong")
	}
}

func TestPlannerFaultLookup(t *testing.T) {
	sch := &Schedule{Events: []Event{
		{Kind: PlannerError, From: 2, To: 2},
		{Kind: PlannerPanic, From: 2, To: 3},
	}}
	if !sch.HasPlannerFaults() {
		t.Fatal("planner faults not detected")
	}
	if k, ok := sch.PlannerFault(2); !ok || k != PlannerError {
		t.Fatalf("slot 2 fault = %v/%v, want first-wins planner-error", k, ok)
	}
	if k, ok := sch.PlannerFault(3); !ok || k != PlannerPanic {
		t.Fatalf("slot 3 fault = %v/%v", k, ok)
	}
	if _, ok := sch.PlannerFault(4); ok {
		t.Fatal("phantom fault at slot 4")
	}
	capOnly := &Schedule{Events: []Event{{Kind: CenterOutage, Center: 0, From: 0, To: 0}}}
	if capOnly.HasPlannerFaults() {
		t.Fatal("capacity fault misread as planner fault")
	}
}

func TestStormDeterministicAndValid(t *testing.T) {
	cfg := StormConfig{
		Seed: 7, Start: 10, Slots: 12, Centers: 3, FrontEnds: 2,
		Outages: 2, Spikes: 2, Blackouts: 1, Drops: 1, PlannerFaults: 3,
	}
	a, err := Storm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Storm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different storms")
	}
	if err := a.Validate(3, 2); err != nil {
		t.Fatalf("storm invalid: %v", err)
	}
	for i, e := range a.Events {
		if e.From < cfg.Start || e.To >= cfg.Start+cfg.Slots {
			t.Fatalf("event %d (%s) outside window [%d,%d)", i, e.Kind, cfg.Start, cfg.Start+cfg.Slots)
		}
	}
	cfg.Seed = 8
	c, err := Storm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical storms")
	}
	if _, err := Storm(StormConfig{Seed: 1, Slots: 0, Centers: 1, FrontEnds: 1}); err == nil {
		t.Fatal("zero-slot storm accepted")
	}
}

// stubPlanner answers with a fixed empty plan so injector behavior is
// observable in isolation; it counts the calls that reach it.
type stubPlanner struct {
	sys   *datacenter.System
	calls int
}

func (p *stubPlanner) Name() string { return "stub" }
func (p *stubPlanner) Plan(in *core.Input) (*core.Plan, error) {
	p.calls++
	return core.NewPlan(in.Sys), nil
}

func stubInput(sys *datacenter.System, slot int) *core.Input {
	return &core.Input{
		Sys:      sys,
		Arrivals: [][]float64{{50}},
		Prices:   []float64{30, 30},
		Slot:     slot,
	}
}

func TestInjectorFaults(t *testing.T) {
	sys := twoCenterSystem()
	sch := &Schedule{Events: []Event{
		{Kind: PlannerError, From: 1, To: 1},
		{Kind: PlannerPanic, From: 2, To: 2},
		{Kind: PlannerTimeout, From: 3, To: 3},
	}}
	stub := &stubPlanner{sys: sys}
	inj := &Injector{Planner: stub, Sched: sch}
	if inj.Name() != "stub" {
		t.Fatalf("injector name %q", inj.Name())
	}
	// Clean slot: passthrough.
	if _, err := inj.Plan(stubInput(sys, 0)); err != nil || stub.calls != 1 {
		t.Fatalf("clean slot: err %v, %d calls reached the planner", err, stub.calls)
	}
	// Error slot.
	if _, err := inj.Plan(stubInput(sys, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("slot 1 error = %v, want ErrInjected", err)
	}
	// Panic slot.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("slot 2 did not panic")
			}
		}()
		inj.Plan(stubInput(sys, 2))
	}()
	// Timeout slot: the planner's time-budget error, at once.
	if _, err := inj.Plan(stubInput(sys, 3)); !errors.Is(err, core.ErrTimeout) || errors.Is(err, ErrInjected) {
		t.Fatalf("slot 3 error = %v, want core.ErrTimeout", err)
	}
	if stub.calls != 1 {
		t.Fatalf("%d calls reached the planner, want only the clean slot's", stub.calls)
	}
	// Without a chain, a timeout slot fails like an error slot: Step sheds it.
	for slot, want := range map[int]error{1: ErrInjected, 3: core.ErrTimeout} {
		in := stubInput(sys, slot)
		c := core.Step(inj, in, in, false)
		if !errors.Is(c.Err, want) || c.TierName != "shed" || !c.Degraded || c.Plan.Served(0) != 0 {
			t.Fatalf("slot %d through Step: err %v, tier %q, degraded %v; want a shed slot wrapping %v", slot, c.Err, c.TierName, c.Degraded, want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Kind: CenterOutage, Center: 1, From: 3, To: 5}, "center-outage(l=1,slots 3-5)"},
		{Event{Kind: PriceSpike, Center: 0, Factor: 2, From: 1, To: 2}, "price-spike(l=0,×2,slots 1-2)"},
		{Event{Kind: TraceDrop, FrontEnd: 1, From: 0, To: 0}, "trace-drop(s=1,slots 0-0)"},
		{Event{Kind: PlannerPanic, From: 4, To: 4}, "planner-panic(slots 4-4)"},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	sch := &Schedule{Events: []Event{cases[0].ev, cases[1].ev}}
	names := sch.ActiveNames(3)
	if len(names) != 1 || names[0] != cases[0].want {
		t.Fatalf("ActiveNames(3) = %v", names)
	}
	if sch.ActiveNames(10) != nil {
		t.Fatal("ActiveNames past all events should be nil")
	}
}

func TestTruePriceNaNSafety(t *testing.T) {
	// A schedule never manufactures NaN/Inf from valid inputs.
	tr := &market.PriceTrace{Name: "x", Prices: []float64{25}}
	sch := &Schedule{Events: []Event{{Kind: PriceSpike, Center: 0, Factor: 3, From: 0, To: 0}}}
	if p := sch.TruePrice(tr, 0, 0); math.IsNaN(p) || math.IsInf(p, 0) || p != 75 {
		t.Fatalf("spiked price = %g", p)
	}
}
