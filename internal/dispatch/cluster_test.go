package dispatch

import (
	"errors"
	"math"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/obs"
	"profitlb/internal/tuf"
)

// oneLaneSystem is the smallest topology that compiles to a single lane,
// so bucket-level behaviour is directly observable.
func oneLaneSystem() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "w", TUF: tuf.MustNew([]tuf.Level{{Utility: 0.01, Deadline: 0.01}})},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "a", DistanceMiles: []float64{1}}},
		Centers: []datacenter.DataCenter{
			{Name: "x", Servers: 4, Capacity: 1, ServiceRate: []float64{1000}, EnergyPerRequest: []float64{1e-4}},
		},
	}
}

// oneLaneTable compiles a table with exactly one lane of the given rate
// and a burst pinned to cfg.MinBurst (cfg.Burst is left tiny).
func oneLaneTable(t *testing.T, slot int, rate float64, cfg Config) *Table {
	t.Helper()
	sys := oneLaneSystem()
	in := &core.Input{Sys: sys, Arrivals: [][]float64{{1e9}}, Prices: []float64{0.05}, Slot: slot}
	plan := core.NewPlan(sys)
	plan.Rate[0][0][0][0] = rate
	plan.ServersOn = []int{4}
	plan.Phi[0][0] = []float64{1}
	tab, err := Compile(in, plan, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(tab.Lanes) != 1 {
		t.Fatalf("%d lanes, want 1", len(tab.Lanes))
	}
	return tab
}

// TestEpochFence: InstallIfNewer rejects stale and duplicate epochs,
// counts each kind, and leaves the serving table untouched.
func TestEpochFence(t *testing.T) {
	cfg := Config{SlotSeconds: 60, Burst: 1e-9, MinBurst: 4}
	gw := NewGateway(oneLaneSystem(), cfg, nil)

	t3 := oneLaneTable(t, 0, 2, cfg)
	t3.Epoch = 3
	if !gw.InstallIfNewer(t3, 0, 0) {
		t.Fatal("epoch 3 fenced on a fresh gateway")
	}
	if gw.Epoch() != 3 {
		t.Fatalf("Epoch() = %d, want 3", gw.Epoch())
	}

	dup := oneLaneTable(t, 0, 9, cfg)
	dup.Epoch = 3
	if gw.InstallIfNewer(dup, 0, 0) {
		t.Fatal("duplicate epoch installed")
	}
	stale := oneLaneTable(t, 0, 9, cfg)
	stale.Epoch = 1
	if gw.InstallIfNewer(stale, 0, 0) {
		t.Fatal("stale epoch installed")
	}
	if st := gw.Stats(0); st.FencedStale != 1 || st.FencedDup != 1 {
		t.Fatalf("fence counters (%d, %d), want (1, 1)", st.FencedStale, st.FencedDup)
	}
	if got := gw.Table().Lanes[0].Rate; got != 2 {
		t.Fatalf("serving lane rate %g after fenced installs, want 2", got)
	}

	t5 := oneLaneTable(t, 0, 7, cfg)
	t5.Epoch = 5
	if !gw.InstallIfNewer(t5, 0, 0) {
		t.Fatal("epoch 5 fenced")
	}
	if gw.Epoch() != 5 || gw.Table().Lanes[0].Rate != 7 {
		t.Fatalf("epoch %d rate %g after advance", gw.Epoch(), gw.Table().Lanes[0].Rate)
	}
	st := gw.Stats(0)
	if st.Epoch != 5 || st.FencedStale != 1 || st.FencedDup != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestTokenCarrySameSlotSwap: a same-slot hot swap (re-spread or
// staleness downgrade) inherits each lane's accumulated token level —
// fractional part included — instead of refilling to full; a new slot's
// table starts full again.
func TestTokenCarrySameSlotSwap(t *testing.T) {
	const rate, burst = 2.0, 4.0
	cfg := Config{SlotSeconds: 60, Burst: 1e-9, MinBurst: burst}
	gw := NewGateway(oneLaneSystem(), cfg, nil)
	gw.Install(oneLaneTable(t, 0, rate, cfg), 0, 0)

	// Drain the bucket at t=0: exactly burst admits, then budget sheds.
	var admitted int
	for i := 0; i < 10; i++ {
		if gw.Handle(0, 0, 0).Outcome == Admitted {
			admitted++
		}
	}
	if admitted != int(burst) {
		t.Fatalf("flood admitted %d, want %g", admitted, burst)
	}

	// Same-slot swap with the bucket empty: no free burst.
	gw.Install(oneLaneTable(t, 0, rate, cfg), 0, 0)
	if got := gw.Handle(0, 0, 0).Outcome; got != ShedBudget {
		t.Fatalf("after empty-bucket same-slot swap: %v, want shed-budget", got)
	}
	// That probe ran at tokens < 1, spending nothing.

	// Let 1.5 tokens accrue, then swap again: the fraction must survive.
	t1 := 1.5 / rate
	gw.Install(oneLaneTable(t, 0, rate, cfg), t1, 0)
	if got := gw.Handle(0, 0, t1).Outcome; got != Admitted {
		t.Fatalf("carried 1.5 tokens: first request %v, want admitted", got)
	}
	if got := gw.Handle(0, 0, t1).Outcome; got != ShedBudget {
		t.Fatalf("carried 1.5 tokens: second request %v, want shed-budget", got)
	}
	// 0.5 tokens remain. Another swap, then half a token's worth of time:
	// 0.5 carried + 0.5 accrued = 1.0 — admitted only if the fraction was
	// carried through both swaps.
	gw.Install(oneLaneTable(t, 0, rate, cfg), t1, 0)
	t2 := t1 + 0.5/rate
	if got := gw.Handle(0, 0, t2).Outcome; got != Admitted {
		t.Fatalf("fractional carry lost: %v, want admitted", got)
	}

	// A new slot resets to a full bucket.
	gw.Install(oneLaneTable(t, 1, rate, cfg), t2, 0)
	admitted = 0
	for i := 0; i < 10; i++ {
		if gw.Handle(0, 0, t2).Outcome == Admitted {
			admitted++
		}
	}
	if admitted != int(burst) {
		t.Fatalf("new slot admitted %d, want full burst %g", admitted, burst)
	}
}

// TestTokenCarryClampsToNewBurst: a downgrade swap (smaller burst) clamps
// the inherited level to the new capacity instead of importing the old.
func TestTokenCarryClampsToNewBurst(t *testing.T) {
	cfg := Config{SlotSeconds: 60, Burst: 1e-9, MinBurst: 8}
	gw := NewGateway(oneLaneSystem(), cfg, nil)
	gw.Install(oneLaneTable(t, 0, 2, cfg), 0, 0) // full at 8 tokens

	small := Config{SlotSeconds: 60, Burst: 1e-9, MinBurst: 3}
	gw.Install(oneLaneTable(t, 0, 2, small), 0, 0)
	var admitted int
	for i := 0; i < 12; i++ {
		if gw.Handle(0, 0, 0).Outcome == Admitted {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("admitted %d after clamping swap, want 3", admitted)
	}
}

// TestSubdivideSharesSumExactly: the telescoping subdivision reproduces
// every lane's rate and every stream's planned budget exactly when the
// replica shares are summed — the property that lets per-replica
// accounting reconcile against the fleet plan with zero tolerance.
func TestSubdivideSharesSumExactly(t *testing.T) {
	cfg := Config{Seed: 21, SlotSeconds: 60}
	_, _, tab := testTable(t, cfg)
	for _, n := range []int{1, 2, 3, 4, 7} {
		rates := make([]float64, len(tab.Lanes))
		planned := make([][]float64, tab.K())
		for k := range planned {
			planned[k] = make([]float64, tab.S())
		}
		for idx := 0; idx < n; idx++ {
			sub, err := tab.Subdivide(idx, n, cfg)
			if err != nil {
				t.Fatalf("subdivide %d/%d: %v", idx, n, err)
			}
			if sub.Epoch != tab.Epoch || sub.Slot != tab.Slot || len(sub.Lanes) != len(tab.Lanes) {
				t.Fatalf("subdivision %d/%d lost identity: %+v", idx, n, sub)
			}
			for i := range sub.Lanes {
				rates[i] += sub.Lanes[i].Rate
				if sub.Lanes[i].Service != tab.Lanes[i].Service {
					t.Fatalf("subdivision %d/%d lane %d service rate %g, want the per-server %g", idx, n, i, sub.Lanes[i].Service, tab.Lanes[i].Service)
				}
				if sub.Lanes[i].Burst < DefaultMinBurst {
					t.Fatalf("lane %d burst %g below floor", i, sub.Lanes[i].Burst)
				}
			}
			for k := 0; k < tab.K(); k++ {
				for s := 0; s < tab.S(); s++ {
					p, _ := sub.Planned(k, s)
					planned[k][s] += p
				}
			}
		}
		for i := range rates {
			if rates[i] != tab.Lanes[i].Rate {
				t.Errorf("n=%d lane %d shares sum to %g, want exactly %g (Δ=%g)",
					n, i, rates[i], tab.Lanes[i].Rate, rates[i]-tab.Lanes[i].Rate)
			}
		}
		for k := 0; k < tab.K(); k++ {
			for s := 0; s < tab.S(); s++ {
				want, _ := tab.Planned(k, s)
				if math.Abs(planned[k][s]-want) > 1e-9 {
					t.Errorf("n=%d stream (%d,%d) planned sums to %g, want %g", n, k, s, planned[k][s], want)
				}
			}
		}
	}
	if _, err := tab.Subdivide(0, 0, cfg); err == nil {
		t.Error("subdivide into 0 replicas accepted")
	}
	if _, err := tab.Subdivide(3, 3, cfg); err == nil {
		t.Error("replica index == fleet size accepted")
	}
	if _, err := tab.Subdivide(-1, 3, cfg); err == nil {
		t.Error("negative replica index accepted")
	}
}

// TestSubdivideIndependentRouting: replicas walk independent routing
// sequences (re-mixed seeds) over the same lane distribution.
func TestSubdivideIndependentRouting(t *testing.T) {
	// A hand-built stream split across two centers, so draws actually
	// have two lanes to choose between.
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "w", TUF: tuf.MustNew([]tuf.Level{{Utility: 0.01, Deadline: 0.01}})},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "a", DistanceMiles: []float64{1, 2}}},
		Centers: []datacenter.DataCenter{
			{Name: "x", Servers: 4, Capacity: 1, ServiceRate: []float64{1000}, EnergyPerRequest: []float64{1e-4}},
			{Name: "y", Servers: 4, Capacity: 1, ServiceRate: []float64{1000}, EnergyPerRequest: []float64{1e-4}},
		},
	}
	in := &core.Input{Sys: sys, Arrivals: [][]float64{{1e9}}, Prices: []float64{0.05, 0.05}}
	plan := core.NewPlan(sys)
	plan.Rate[0][0][0][0] = 300
	plan.Rate[0][0][0][1] = 200
	plan.ServersOn = []int{4, 4}
	plan.Phi[0][0] = []float64{1}
	plan.Phi[1][0] = []float64{1}
	cfg := Config{Seed: 8, SlotSeconds: 60}
	tab, err := Compile(in, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.entries[0][0].lanes) != 2 {
		t.Fatalf("fixture has %d lanes, want 2", len(tab.entries[0][0].lanes))
	}
	a, err := tab.Subdivide(0, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tab.Subdivide(1, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := &a.entries[0][0], &b.entries[0][0]
	for seq := uint64(0); seq < 256; seq++ {
		if ea.draw(seq) != eb.draw(seq) {
			return
		}
	}
	t.Fatal("replicas 0 and 1 drew identical routing sequences across 256 draws")
}

// TestWireRoundTrip: Wire→FromWire reconstructs a table that routes and
// admits identically to the original.
func TestWireRoundTrip(t *testing.T) {
	cfg := Config{Seed: 13, SlotSeconds: 60}
	_, _, tab := testTable(t, cfg)
	tab.Epoch = 42
	back, err := FromWire(tab.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 42 || back.Slot != tab.Slot || back.SlotLen != tab.SlotLen ||
		back.Objective != tab.Objective || len(back.Lanes) != len(tab.Lanes) {
		t.Fatalf("round trip lost header: %+v", back)
	}
	for k := 0; k < tab.K(); k++ {
		for s := 0; s < tab.S(); s++ {
			ea, eb := &tab.entries[k][s], &back.entries[k][s]
			if math.Abs(ea.planned-eb.planned) > 1e-9 || ea.arrival != eb.arrival {
				t.Fatalf("stream (%d,%d) budgets differ: %g/%g vs %g/%g",
					k, s, ea.planned, ea.arrival, eb.planned, eb.arrival)
			}
			for seq := uint64(0); seq < 2000; seq++ {
				if ea.draw(seq) != eb.draw(seq) {
					t.Fatalf("stream (%d,%d) seq %d routes differently after round trip", k, s, seq)
				}
			}
		}
	}
}

// TestFromWireRejectsHostile: corrupted or hostile wire payloads are
// rejected instead of installing garbage.
func TestFromWireRejectsHostile(t *testing.T) {
	cfg := Config{Seed: 13, SlotSeconds: 60}
	_, _, tab := testTable(t, cfg)
	good := tab.Wire()
	mutate := map[string]func(w *TableWire){
		"zero types":         func(w *TableWire) { w.K = 0 },
		"negative fronts":    func(w *TableWire) { w.S = -1 },
		"zero slot length":   func(w *TableWire) { w.SlotLen = 0 },
		"NaN slot length":    func(w *TableWire) { w.SlotLen = math.NaN() },
		"short arrivals":     func(w *TableWire) { w.Arrivals = w.Arrivals[:1] },
		"ragged arrivals":    func(w *TableWire) { w.Arrivals[0] = w.Arrivals[0][:1] },
		"lane out of range":  func(w *TableWire) { w.Lanes[0].K = 99 },
		"negative lane rate": func(w *TableWire) { w.Lanes[0].Rate = -1 },
		"NaN lane rate":      func(w *TableWire) { w.Lanes[0].Rate = math.NaN() },
		"infinite burst":     func(w *TableWire) { w.Lanes[0].Burst = math.Inf(1) },
	}
	for name, f := range mutate {
		w := *good
		w.Lanes = append([]Lane(nil), good.Lanes...)
		w.Arrivals = make([][]float64, len(good.Arrivals))
		for k := range good.Arrivals {
			w.Arrivals[k] = append([]float64(nil), good.Arrivals[k]...)
		}
		f(&w)
		if _, err := FromWire(&w); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FromWire(nil); err == nil {
		t.Error("nil wire accepted")
	}
}

// TestScaleConservativeShed: the staleness downgrade transform keeps the
// routing distribution but cuts the admitted budget to the factor.
func TestScaleConservativeShed(t *testing.T) {
	const rate, burst = 2.0, 6.0
	cfg := Config{SlotSeconds: 60, Burst: 1e-9, MinBurst: burst}
	tab := oneLaneTable(t, 0, rate, cfg)
	half := tab.Scale(0.5, "stale", Config{SlotSeconds: 60, Burst: 1e-9, MinBurst: burst / 2})
	if !half.Degraded || half.Tier != "stale" {
		t.Fatalf("scaled table: degraded %v tier %q", half.Degraded, half.Tier)
	}
	if half.Lanes[0].Rate != rate/2 {
		t.Fatalf("scaled rate %g, want %g", half.Lanes[0].Rate, rate/2)
	}
	if half.Lanes[0].Service != tab.Lanes[0].Service || tab.Lanes[0].Service <= 0 {
		t.Fatalf("scaled service rate %g, want the per-server %g", half.Lanes[0].Service, tab.Lanes[0].Service)
	}
	if tab.Lanes[0].Rate != rate {
		t.Fatal("Scale mutated the source table")
	}
	gw := NewGateway(oneLaneSystem(), cfg, nil)
	gw.Install(half, 0, 0)
	var admitted int
	for i := 0; i < 20; i++ {
		if gw.Handle(0, 0, 0).Outcome == Admitted {
			admitted++
		}
	}
	if admitted != int(burst/2) {
		t.Fatalf("scaled flood admitted %d, want %g", admitted, burst/2)
	}
}

// flakyPlanner fails on scheduled calls and delegates otherwise.
type flakyPlanner struct {
	inner core.Planner
	calls int
	fail  map[int]bool // by call index (1-based)
}

func (p *flakyPlanner) Name() string { return "flaky" }
func (p *flakyPlanner) Plan(in *core.Input) (*core.Plan, error) {
	p.calls++
	if p.fail[p.calls] {
		return nil, errors.New("induced planner failure")
	}
	return p.inner.Plan(in)
}

// TestDriverMultiSlotRecovery: consecutive planner failures degrade each
// slot to all-shed under strictly increasing epochs, and the first clean
// slot recovers primary serving — with the obs slot counters agreeing.
func TestDriverMultiSlotRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	scope := obs.NewScope(reg, nil)
	in := testInput(testSystem())
	gw := NewGateway(in.Sys, Config{SlotSeconds: 60}, scope)
	d := &Driver{
		Gateway: gw,
		Planner: &flakyPlanner{inner: core.NewOptimized(), fail: map[int]bool{2: true, 3: true}},
		Source:  &stubSource{in: in},
	}
	type slotState struct {
		epoch    uint64
		degraded bool
		tier     string
	}
	var got []slotState
	for i := 0; i < 4; i++ {
		tab, err := install(d, 10+i, float64(i)*in.Sys.Slot())
		if err != nil {
			t.Fatalf("slot %d: %v", 10+i, err)
		}
		got = append(got, slotState{tab.Epoch, tab.Degraded, tab.Tier})
		wantErr := i == 1 || i == 2
		if (d.LastErr != nil) != wantErr {
			t.Fatalf("slot %d LastErr = %v", 10+i, d.LastErr)
		}
	}
	for i, s := range got {
		if s.epoch != uint64(i+1) {
			t.Fatalf("slot %d epoch %d, want %d (monotone, no gaps)", i, s.epoch, i+1)
		}
	}
	if got[0].degraded || got[3].degraded {
		t.Fatalf("clean slots degraded: %+v", got)
	}
	if !got[1].degraded || got[1].tier != "shed" || !got[2].degraded || got[2].tier != "shed" {
		t.Fatalf("failed slots not all-shed: %+v", got)
	}
	// The recovered gateway serves primary traffic again.
	if out := gw.Handle(0, 0, 3*in.Sys.Slot()).Outcome; out != Admitted {
		t.Fatalf("post-recovery request: %v, want admitted", out)
	}
	if n := scope.Counter("dispatch_slots_total").Value(); n != 4 {
		t.Fatalf("dispatch_slots_total = %d, want 4", n)
	}
	if n := scope.Counter("dispatch_slots_degraded_total").Value(); n != 2 {
		t.Fatalf("dispatch_slots_degraded_total = %d, want 2", n)
	}
	if gw.Epoch() != 4 {
		t.Fatalf("gateway epoch %d, want 4", gw.Epoch())
	}
}
