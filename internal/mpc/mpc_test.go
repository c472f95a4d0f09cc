package mpc

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/obs"
	"profitlb/internal/tuf"
)

// unitSys is a single-front-end, single-center system with one interactive
// class (always profitable) and one energy-heavy batch class: at spike
// prices (≥ ~0.124 $/kWh) serving batch costs more than its utility, so a
// myopic planner drops it while a deferring planner buffers it.
func unitSys() *datacenter.System {
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

func slotInput(sys *datacenter.System, slot int, price, web, batch float64) *core.Input {
	return &core.Input{
		Sys:      sys,
		Arrivals: [][]float64{{web, batch}},
		Prices:   []float64{price},
		Slot:     slot,
	}
}

func TestConfigWithDefaults(t *testing.T) {
	if c := (Config{}).WithDefaults(); c.Horizon != 4 {
		t.Fatalf("defaults = %+v", c)
	}
	if c := (Config{Horizon: 7}).WithDefaults(); c.Horizon != 7 {
		t.Fatalf("explicit horizon overwritten: %+v", c)
	}
}

// TestConstantsAreTheOldDefaults pins every setting that used to be an
// mpc key to the value its default was.
func TestConstantsAreTheOldDefaults(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"priceHedge (deferMargin)", priceHedge, 0.2},
	} {
		if c.got != c.want {
			t.Errorf("%s = %g, the key's default was %g", c.name, c.got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Horizon: 4, MaxDefer: []int{0, 2}, EndSlot: 24}
	if err := good.Validate(2); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Horizon: 0},
		{Horizon: -3},
		{Horizon: 2, EndSlot: -1},
		{Horizon: 2, MaxDefer: []int{0, -1}},
		{Horizon: 2, MaxDefer: []int{1}}, // wrong K
	}
	for i, c := range bad {
		if err := c.Validate(2); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, c)
		}
	}
	// Negative K skips only the dimension check.
	if err := (Config{Horizon: 2, MaxDefer: []int{1}}).Validate(-1); err != nil {
		t.Fatalf("dimension check not skipped: %v", err)
	}
}

func TestDeferWindow(t *testing.T) {
	p := New(Config{Horizon: 4, MaxDefer: []int{0, 3}, EndSlot: 10})
	cases := []struct {
		k, slot, want int
	}{
		{0, 0, -1}, // no allowance
		{1, 0, 2},  // full allowance
		{1, 5, 2},  // clamp inactive: 10-2-5 = 3 > 2
		{1, 7, 1},  // clamp: served by slot 9 at the latest
		{1, 8, 0},  // must be served in slot 9
		{1, 9, -1}, // nothing after the run: lose immediately
	}
	for _, c := range cases {
		if got := p.deferWindow(c.k, c.slot); got != c.want {
			t.Fatalf("deferWindow(%d, %d) = %d, want %d", c.k, c.slot, got, c.want)
		}
	}
	// A myopic-only configuration never defers regardless of allowance.
	m := New(Config{Horizon: 1, MaxDefer: []int{0, 3}})
	if got := m.deferWindow(1, 0); got != -1 {
		t.Fatalf("myopic-only deferWindow = %d, want -1", got)
	}
}

// TestMyopicReductionBitIdentical drives the two degenerate configurations
// (H=1, and all-zero MaxDefer) against the reference myopic optimizer over
// the same input sequence and demands byte-identical plans: the fast path
// must delegate, not approximate.
func TestMyopicReductionBitIdentical(t *testing.T) {
	sys := unitSys()
	prices := []float64{0.148, 0.088, 0.139, 0.095, 0.126, 0.079}
	for name, cfg := range map[string]Config{
		"horizon-1":  {Horizon: 1, MaxDefer: []int{0, 2}},
		"zero-defer": {Horizon: 4},
	} {
		t.Run(name, func(t *testing.T) {
			p := New(cfg)
			ref := core.NewOptimized()
			for slot, price := range prices {
				in := slotInput(sys, slot, price, 300, 200)
				got, err := p.Plan(in)
				if err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
				want, err := ref.Plan(in)
				if err != nil {
					t.Fatalf("slot %d ref: %v", slot, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("slot %d: plan diverges from myopic reference", slot)
				}
				ledger := p.CommitSlot(in, got)
				if core.Total(ledger.DeferredNew) != 0 || core.Total(ledger.BacklogOut) != 0 {
					t.Fatalf("slot %d: degenerate config buffered work: %+v", slot, ledger)
				}
			}
		})
	}
}

// TestPlanCommitConservation runs the full plan→verify→commit protocol over
// a vibrating price trace and checks the settlement identities every slot:
// the ledger's backlog flow balances exactly, carried backlog matches the
// previous slot's output, no bucket outlives its allowance, and over the
// whole run arrivals = served + shed + lost with an empty final buffer.
func TestPlanCommitConservation(t *testing.T) {
	sys := unitSys()
	const slots = 10
	p := New(Config{Horizon: 4, MaxDefer: []int{0, 2}, EndSlot: slots})
	p.AttachForecast(flatSource{0.088, 300, 200}) // the valleys ahead
	var prevOut []float64
	var totArr, totServed, totShed, totLost, totDef float64
	for slot := 0; slot < slots; slot++ {
		price := 0.148 // spikes on even slots, valleys on odd
		if slot%2 == 1 {
			price = 0.088
		}
		in := slotInput(sys, slot, price, 300, 200)
		plan, err := p.Plan(in)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if err := core.Verify(core.RelaxArrivals(in, p.BacklogBudget()), plan, 1e-6); err != nil {
			t.Fatalf("slot %d: committed plan infeasible: %v", slot, err)
		}
		ledger := p.CommitSlot(in, plan)
		K := sys.K()
		for k := 0; k < K; k++ {
			flow := ledger.CarriedIn[k] - ledger.Drained[k] - ledger.Shed[k] + ledger.DeferredNew[k]
			if math.Abs(flow-ledger.BacklogOut[k]) > 1e-9 {
				t.Fatalf("slot %d class %d: backlog flow %g vs out %g", slot, k, flow, ledger.BacklogOut[k])
			}
			if prevOut != nil && math.Abs(ledger.CarriedIn[k]-prevOut[k]) > 1e-9 {
				t.Fatalf("slot %d class %d: carried %g, previous out %g", slot, k, ledger.CarriedIn[k], prevOut[k])
			}
			var served float64
			for s := 0; s < sys.S(); s++ {
				served += plan.ServedFrom(k, s)
			}
			arr := in.Arrivals[0][k]
			servedNew := served - ledger.Drained[k]
			if gap := arr - servedNew - ledger.DeferredNew[k] - ledger.LostNew[k]; math.Abs(gap) > 1e-6 {
				t.Fatalf("slot %d class %d: arrival conservation off by %g", slot, k, gap)
			}
			totServed += served
			totArr += arr
			// No bucket may outlive its allowance (indices 0..MaxDefer-1),
			// and a class without an allowance may never have buckets.
			if got, max := len(p.backlog[0][k]), p.cfg.maxDefer(k); got > max {
				t.Fatalf("slot %d class %d: %d buckets, allowance %d", slot, k, got, max)
			}
		}
		totShed += core.Total(ledger.Shed)
		totLost += core.Total(ledger.LostNew)
		totDef += core.Total(ledger.DeferredNew)
		prevOut = ledger.BacklogOut
	}
	if !p.backlogEmpty() {
		t.Fatalf("final backlog nonzero: %v", p.backlog)
	}
	if totDef == 0 {
		t.Fatal("vibrating prices deferred nothing — the scenario is inert")
	}
	if totShed != 0 || totLost != 0 {
		t.Fatalf("ample-capacity run shed %g / lost %g", totShed, totLost)
	}
	if gap := totArr - totServed; math.Abs(gap) > 1e-6 {
		t.Fatalf("run-level conservation: arrivals-served gap %g", gap)
	}
}

// TestCommitSlotShedOnEmptyPlan settles two slots against no plan at all
// (the simulator's shed-slot degradation): deferrable arrivals are buffered
// on the first, and the now-due bucket expires as Shed on the second.
func TestCommitSlotShedOnEmptyPlan(t *testing.T) {
	sys := unitSys()
	p := New(Config{Horizon: 4, MaxDefer: []int{0, 1}, EndSlot: 10})
	l0 := p.CommitSlot(slotInput(sys, 0, 0.148, 300, 200), nil)
	if l0.DeferredNew[1] != 200 || l0.LostNew[0] != 300 {
		t.Fatalf("first shed slot ledger: %+v", l0)
	}
	l1 := p.CommitSlot(slotInput(sys, 1, 0.148, 300, 200), nil)
	if math.Abs(l1.Shed[1]-200) > 1e-9 {
		t.Fatalf("due bucket not shed: %+v", l1)
	}
	if l1.DeferredNew[1] != 200 {
		t.Fatalf("second slot's arrivals not re-deferred: %+v", l1)
	}
}

// TestForceDrainPlacesDueWork builds a due bucket by hand and checks the
// three-stage placement: the full volume lands in the plan, the augmented
// plan still verifies against arrivals+backlog, and an oversized bucket is
// placed only up to physical capacity with the remainder shed at commit.
func TestForceDrainPlacesDueWork(t *testing.T) {
	sys := unitSys()
	in := slotInput(sys, 0, 0.148, 300, 0)
	t.Run("fits", func(t *testing.T) {
		p := New(Config{Horizon: 4, MaxDefer: []int{0, 2}, EndSlot: 10})
		p.lazyInit(sys.K(), sys.S())
		p.backlog[0][1] = []float64{150}
		plan, err := core.NewOptimized().Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		placed := p.ForceDrain(in, plan)
		if math.Abs(placed-150) > 1e-6 {
			t.Fatalf("placed %g of 150", placed)
		}
		if got := plan.ServedFrom(1, 0); math.Abs(got-150) > 1e-6 {
			t.Fatalf("plan dispatches %g", got)
		}
		if err := core.Verify(core.RelaxArrivals(in, p.BacklogBudget()), plan, 1e-6); err != nil {
			t.Fatalf("forced plan infeasible: %v", err)
		}
		ledger := p.CommitSlot(in, plan)
		if math.Abs(ledger.Forced[1]-150) > 1e-6 || ledger.Shed[1] != 0 {
			t.Fatalf("ledger after drain: %+v", ledger)
		}
	})
	t.Run("overflow", func(t *testing.T) {
		p := New(Config{Horizon: 4, MaxDefer: []int{0, 2}, EndSlot: 10})
		p.lazyInit(sys.K(), sys.S())
		p.backlog[0][1] = []float64{10000}
		plan, err := core.NewOptimized().Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		placed := p.ForceDrain(in, plan)
		if placed <= 0 || placed >= 10000 {
			t.Fatalf("placed %g, want partial", placed)
		}
		if err := core.Verify(core.RelaxArrivals(in, p.BacklogBudget()), plan, 1e-6); err != nil {
			t.Fatalf("overflowed plan infeasible: %v", err)
		}
		ledger := p.CommitSlot(in, plan)
		if math.Abs(ledger.Shed[1]-(10000-placed)) > 1e-6 {
			t.Fatalf("shed %g, want %g", ledger.Shed[1], 10000-placed)
		}
	})
}

// TestPlanDoesNotMutateBacklog: settlement belongs to CommitSlot alone.
func TestPlanDoesNotMutateBacklog(t *testing.T) {
	sys := unitSys()
	p := New(Config{Horizon: 4, MaxDefer: []int{0, 2}, EndSlot: 10})
	p.AttachForecast(flatSource{0.088, 300, 200})
	// Build a nonzero buffer, snapshot it, then plan twice.
	if _, err := p.Plan(slotInput(sys, 0, 0.148, 300, 200)); err != nil {
		t.Fatal(err)
	}
	p.CommitSlot(slotInput(sys, 0, 0.148, 300, 200), nil)
	snap := make([][][]float64, len(p.backlog))
	for s := range p.backlog {
		snap[s] = make([][]float64, len(p.backlog[s]))
		for k := range p.backlog[s] {
			snap[s][k] = append([]float64(nil), p.backlog[s][k]...)
		}
	}
	for slot := 1; slot <= 2; slot++ {
		if _, err := p.Plan(slotInput(sys, slot, 0.088, 300, 200)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.backlog, snap) {
			t.Fatalf("Plan mutated backlog at slot %d", slot)
		}
	}
}

// flatSource forecasts every slot ahead at one price and one (web, batch)
// arrival pair on unitSys's lone center and front-end.
type flatSource struct{ price, web, batch float64 }

func (f flatSource) ForecastHorizon(h int) ([][]float64, [][][]float64) {
	prices, arrivals := make([][]float64, h), make([][][]float64, h)
	for i := range prices {
		prices[i] = []float64{f.price}
		arrivals[i] = [][]float64{{f.web, f.batch}}
	}
	return prices, arrivals
}

// shortSource answers every horizon one step short.
type shortSource struct{}

func (shortSource) ForecastHorizon(h int) ([][]float64, [][][]float64) {
	return make([][]float64, h-1), make([][][]float64, h-1)
}

// TestMalformedForecastIsAnError: a window planned with no forecast source
// attached, or with one that answers in the wrong shape, fails the slot
// with the cause named and is counted — the planner has no forecaster of
// its own to fall back on, so no plane can quietly plan on another
// forecast than its peers.
func TestMalformedForecastIsAnError(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{Horizon: 3, MaxDefer: []int{0, 2}})
	p.Instrument(obs.NewScope(reg, nil))
	failures := func() int64 { return reg.Counter("mpc_horizon_failures_total", obs.L("planner", "mpc")).Value() }
	in := slotInput(unitSys(), 0, 0.1, 300, 200)
	if _, err := p.Plan(in); !errors.Is(err, ErrNoForecast) {
		t.Fatalf("Plan with no forecast source returned %v, want ErrNoForecast", err)
	}
	if got := failures(); got != 1 {
		t.Fatalf("mpc_horizon_failures_total = %d, want 1", got)
	}
	p.AttachForecast(shortSource{})
	_, err := p.Plan(in)
	if err == nil || !strings.Contains(err.Error(), "1 price and 1 arrival steps, want 2") {
		t.Fatalf("Plan under a short forecast returned %v, want the shape named", err)
	}
	if got := failures(); got != 2 {
		t.Fatalf("mpc_horizon_failures_total = %d, want 2", got)
	}
}

// TestInstrumentReachesTheHorizonSolve: the scope handed to the controller
// is the inner horizon planner's too, so a window solve shows in the same
// core_lp_* counters a slot planner's does — the first build solved cold
// (a window this small is dense, and there is no seed yet), then warm
// re-solves of the held window.
func TestInstrumentReachesTheHorizonSolve(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{Horizon: 3, MaxDefer: []int{0, 2}})
	p.Instrument(obs.NewScope(reg, nil))
	p.AttachForecast(flatSource{0.1, 300, 200})
	sys := unitSys()
	for slot := 0; slot < 4; slot++ {
		in := slotInput(sys, slot, 0.1, 300, 200)
		plan, err := p.Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		p.CommitSlot(in, plan)
	}
	for name, want := range map[string]int64{"core_lp_solves_total": 4, "core_lp_warm_hits_total": 3, "core_lp_model_rebuilds_total": 1, "core_lp_warm_fallbacks_total": 0} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
