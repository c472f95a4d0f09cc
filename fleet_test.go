package profitlb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"profitlb/internal/cluster"
	"profitlb/internal/core"
	"profitlb/internal/dispatch"
	"profitlb/internal/feed"
	"profitlb/internal/market"
	"profitlb/internal/race"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
	"profitlb/internal/workload"
)

// fleetDaySlots is the length of a fleet fixture's day; slots past it
// replay it, so a long run's inputs repeat.
const fleetDaySlots = 12

// fleetConfig is the online fleets' slot source: synthTopology at K×L×S
// under a seeded diurnal drift — each (front-end, class) arrival stream
// swings ±3 % and each center price ±2 % on a sinusoid whose harmonic and
// phase come from the seed — through a clean feed layer. The drift is
// small and smooth, so the admitted set holds and a steady slot is hot
// re-solves.
func fleetConfig(K, L, S int, seed int64) sim.Config {
	sys := synthTopology(K, L, S)
	rng := rand.New(rand.NewSource(seed))
	wave := func() func(int) float64 {
		phase := 2 * math.Pi * rng.Float64()
		harmonic := float64(1 + rng.Intn(3))
		return func(slot int) float64 {
			return math.Sin(2*math.Pi*harmonic*float64(slot)/fleetDaySlots + phase)
		}
	}
	traces := make([]*workload.Trace, S)
	for s := range traces {
		tr := &workload.Trace{Name: sys.FrontEnds[s].Name, Rates: make([][]float64, fleetDaySlots)}
		for t := range tr.Rates {
			tr.Rates[t] = make([]float64, K)
		}
		for k := 0; k < K; k++ {
			base, w := 400+30*float64((s+k)%7), wave()
			for t := range tr.Rates {
				tr.Rates[t][k] = base * (1 + 0.03*w(t))
			}
		}
		traces[s] = tr
	}
	prices := make([]*market.PriceTrace, L)
	for l := range prices {
		pt := &market.PriceTrace{Name: sys.Centers[l].Name, Prices: make([]float64, fleetDaySlots)}
		base, w := 30+float64(l%9), wave()
		for t := range pt.Prices {
			pt.Prices[t] = base * (1 + 0.02*w(t))
		}
		prices[l] = pt
	}
	return sim.Config{
		Sys: sys, Traces: traces, Prices: prices, Slots: fleetDaySlots,
		Feeds: &feed.Config{}, DegradeOnFailure: true,
	}
}

// fleetFixture is one online slot commit: a feed-backed input source, the
// default optimizer (refine as given) under the default resilient chain,
// and a fleet of the given replicas, with slot 0 committed.
type fleetFixture struct {
	cfg   sim.Config
	opt   *core.Optimized
	drv   *dispatch.Driver
	fleet *cluster.Fleet
	slot  int
}

func newFleetFixture(t testing.TB, K, L, S, replicas int, refine bool) *fleetFixture {
	t.Helper()
	cfg := fleetConfig(K, L, S, 7)
	src, err := sim.NewInputSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.NewOptimized()
	opt.Refine, opt.Stats = refine, &core.SearchStats{}
	dcfg := dispatch.Config{}.WithDefaults()
	drv := &dispatch.Driver{Gateway: dispatch.NewGateway(cfg.Sys, dcfg, nil), Planner: resilient.Wrap(opt), Source: src}
	fleet, err := cluster.NewFleet(cfg.Sys, dcfg, cluster.Config{Replicas: replicas}, drv, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleetFixture{cfg: cfg, opt: opt, drv: drv, fleet: fleet}
	f.next(t)
	return f
}

// next commits the fixture's next slot through Fleet.BeginSlot.
func (f *fleetFixture) next(t testing.TB) *cluster.Publication {
	pub, err := f.fleet.BeginSlot(f.slot, float64(f.slot)*f.cfg.Sys.Slot())
	if err != nil {
		t.Fatalf("slot %d: %v", f.slot, err)
	}
	if pub == nil || pub.Table.Degraded {
		t.Fatalf("slot %d: no clean publication", f.slot)
	}
	f.slot++
	return pub
}

// steadyFleets are the two online commits the allocation budget holds: the
// fleet-refine-mid slot (6×10×3, two-level TUFs, half the pairs priced
// out, refine on, 4 replicas) and the fleet-large one (20×100×3, refine
// off, 8 replicas).
var steadyFleets = []struct {
	name                 string
	K, L, S, replicas    int
	refine               bool
	maxObjects, maxBytes uint64
}{
	// 44 objects and 30 272 bytes measured, 16 of the objects the four
	// replicas' Install (156 and 59 328 while the feeds copied each reading
	// twice, the greedy start and its climb made their lists, each Plan
	// and solve allocated its plan and Result, and each replica cut its
	// share alone).
	{"refine-mid-6x10x3", 6, 10, 3, 4, true, 50, 30 << 10},
	// 60 and 193 184 measured (430 and ~482 000 then: ~310 objects in the
	// 103 feeds' readings, 192 kB in the plan, 82 kB in the Result).
	{"large-20x100x3", 20, 100, 3, 8, false, 150, 300_000},
}

// TestSteadyFleetSlotAllocs is the allocation budget of a steady slot
// commit, Fleet.BeginSlot from the feed fetch to the last replica's
// install.
func TestSteadyFleetSlotAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector moves allocations to the heap")
	}
	for _, fx := range steadyFleets {
		f := newFleetFixture(t, fx.K, fx.L, fx.S, fx.replicas, fx.refine)
		for i := 0; i < 3; i++ { // slot 0 solves cold; then the held slabs settle
			f.next(t)
		}
		var before, after runtime.MemStats
		const runs = 8
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f.next(t)
		}
		runtime.ReadMemStats(&after)
		objects, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
		t.Logf("%s: %d objects, %d bytes a steady slot commit", fx.name, objects, bytes)
		if objects > fx.maxObjects || bytes > fx.maxBytes {
			t.Errorf("%s: a steady slot commit allocates %d objects and %d bytes, budget %d and %d", fx.name, objects, bytes, fx.maxObjects, fx.maxBytes)
		}
	}
}

// BenchmarkFleetSlot times one steady slot commit of each steadyFleets
// fixture; make profile W=fleet profiles the fleet-refine-mid one.
func BenchmarkFleetSlot(b *testing.B) {
	for _, fx := range steadyFleets {
		b.Run(fx.name, func(b *testing.B) {
			f := newFleetFixture(b, fx.K, fx.L, fx.S, fx.replicas, fx.refine)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.next(b)
			}
		})
	}
}

// handout records what a planner was handed and handed out each call —
// the input, the feed health it was notified of and the plan — each with
// a deep copy taken when it was handed over.
type handout struct {
	inner core.Planner
	calls []handedCall
	// health is the last notified health and its copy, for the next call.
	health, healthCopy *feed.SlotHealth
}

type handedCall struct {
	in, inCopy         *core.Input
	health, healthCopy *feed.SlotHealth
	plan, planCopy     *core.Plan
}

func (h *handout) Name() string         { return h.inner.Name() }
func (h *handout) Unwrap() core.Planner { return h.inner }
func (h *handout) FallbackState() (int, string, bool) {
	return h.inner.(core.FallbackReporter).FallbackState()
}
func (h *handout) VerifiedPlan() *core.Plan { return h.inner.(core.FallbackReporter).VerifiedPlan() }

func (h *handout) ObserveFeedHealth(sh *feed.SlotHealth) {
	h.health, h.healthCopy = sh, copyHealth(sh)
	sh.Notify(h.inner)
}

func (h *handout) Plan(in *core.Input) (*core.Plan, error) {
	c := handedCall{in: in, inCopy: copyInput(in), health: h.health, healthCopy: h.healthCopy}
	plan, err := h.inner.Plan(in)
	if err == nil {
		c.plan, c.planCopy = plan, plan.Clone()
	}
	h.calls = append(h.calls, c)
	return plan, err
}

func copyInput(in *core.Input) *core.Input {
	out := *in
	out.Prices = append([]float64(nil), in.Prices...)
	out.Arrivals = make([][]float64, len(in.Arrivals))
	for s, row := range in.Arrivals {
		out.Arrivals[s] = append([]float64(nil), row...)
	}
	return &out
}

func copyHealth(sh *feed.SlotHealth) *feed.SlotHealth {
	return &feed.SlotHealth{Prices: append([]feed.Health(nil), sh.Prices...), Arrivals: append([]feed.Health(nil), sh.Arrivals...)}
}

// tableFingerprint is everything a routing table decides by, as bytes: its
// wire form, every stream's planned rate, and the lanes the first draws of
// every stream take on a scratch gateway it is installed on (the gateway's
// run state is its own, so the table is only read).
func tableFingerprint(t *testing.T, tab *dispatch.Table, f *fleetFixture) string {
	t.Helper()
	body, err := json.Marshal(tab.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.Write(body)
	gw := dispatch.NewGateway(f.cfg.Sys, dispatch.Config{}, nil)
	gw.Install(tab, 0, 0)
	for k := 0; k < tab.K(); k++ {
		for s := 0; s < tab.S(); s++ {
			planned, arrival := tab.Planned(k, s)
			fmt.Fprintf(&b, " %x/%x:", math.Float64bits(planned), math.Float64bits(arrival))
			for i := 0; i < 16; i++ {
				fmt.Fprintf(&b, "%d,", gw.Handle(k, s, 0).Lane)
			}
		}
	}
	return b.String()
}

// TestHandedOutValuesStay holds the ownership rules of a slot's buffers
// (DESIGN §3.1): what slot n hands out is never written by slot
// n+1. Over a 3-slot 6×10×3 fleet of 4 replicas: the input the planner was
// handed and the feed health that came with it; the publication, its
// membership and its wire bytes; and every replica's installed table. The
// plan is the one value a steady slot hands back (core.Recycle, once the
// table is compiled), and the planner refills that very plan the next
// slot. Over a sim.Run day, which hands nothing back: every input, health
// and plan the planner was handed or returned, and each plan the report
// keeps.
func TestHandedOutValuesStay(t *testing.T) {
	f := newFleetFixture(t, 6, 10, 3, 4, true)
	rec := &handout{inner: f.drv.Planner}
	f.drv.Planner = rec
	type slotOut struct {
		pub     *cluster.Publication
		pubJSON []byte
		members []string
		tables  []*dispatch.Table
		prints  []string
	}
	var outs []slotOut
	for n := 0; n < 3; n++ {
		pub := f.next(t)
		out := slotOut{pub: pub, members: append([]string(nil), pub.Members...)}
		var err error
		if out.pubJSON, err = json.Marshal(pub); err != nil {
			t.Fatal(err)
		}
		for _, r := range f.fleet.Replicas {
			tab := r.Gateway().Table()
			out.tables, out.prints = append(out.tables, tab), append(out.prints, tableFingerprint(t, tab, f))
		}
		outs = append(outs, out)
		for m, o := range outs[:n] {
			if body, _ := json.Marshal(o.pub); !bytes.Equal(body, o.pubJSON) || !slices.Equal(o.pub.Members, o.members) {
				t.Fatalf("slot %d's publication changed by slot %d", m, n)
			}
			for i, tab := range o.tables {
				if tableFingerprint(t, tab, f) != o.prints[i] {
					t.Fatalf("replica %d's slot-%d table changed by slot %d", i, m, n)
				}
			}
		}
		for m, c := range rec.calls[:n+1] {
			if !reflect.DeepEqual(c.in, c.inCopy) || c.health != nil && !reflect.DeepEqual(c.health, c.healthCopy) {
				t.Fatalf("slot %d's input or feed health changed by slot %d", m, n)
			}
		}
		if n > 0 && rec.calls[n].plan != rec.calls[n-1].plan {
			t.Fatalf("slot %d: the plan handed back at slot %d was not the one refilled", n, n-1)
		}
	}

	cfg := fleetConfig(6, 10, 3, 7)
	cfg.KeepPlans = true
	rec = &handout{inner: resilient.Wrap(core.NewOptimized())}
	rep, err := sim.Run(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != cfg.Slots || len(rep.Slots) != cfg.Slots {
		t.Fatalf("%d plan calls and %d slots reported, want %d", len(rec.calls), len(rep.Slots), cfg.Slots)
	}
	for n, c := range rec.calls {
		if !reflect.DeepEqual(c.in, c.inCopy) || !reflect.DeepEqual(c.health, c.healthCopy) || c.plan == nil || !reflect.DeepEqual(c.plan, c.planCopy) {
			t.Fatalf("slot %d of the day: its input, health or plan changed by a later slot", n)
		}
		if !reflect.DeepEqual(rep.Slots[n].Plan, c.planCopy) || rep.Slots[n].Feeds != c.health {
			t.Fatalf("slot %d of the day: the report keeps another plan or health than the slot's", n)
		}
	}
}
