package loadgen

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"testing"

	"profitlb/internal/cluster"
	"profitlb/internal/control"
	"profitlb/internal/core"
	"profitlb/internal/dispatch"
	"profitlb/internal/fault"
	"profitlb/internal/feed"
	"profitlb/internal/mpc"
	"profitlb/internal/obs"
	"profitlb/internal/race"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
)

// soakLength is the soak's length in slots. The default, 200, is long
// enough to measure the heap well past its slot-50 reading and short
// enough to run in a few seconds; make soak runs 10 000, with the storm's
// fault counts scaled to keep its density.
var soakLength = flag.Int("soak.slots", 200, "slots the fleet soaks run (make soak: 10000)")

// soakHeapSlack bounds how far the live heap may grow from slot 50 to
// the end of the soak. What legitimately accrues — the controller's
// actuation log, a line per correction — is a few kilobytes.
const soakHeapSlack = 1 << 20

// auditPlant is the fleet plant with the soak's audit run around every
// control tick: before its sample and after any correction it publishes.
type auditPlant struct {
	*control.FleetPlant
	audit func(when string)
}

func (p auditPlant) Sample(epoch, sub uint64) control.Sample {
	p.audit("control tick")
	return p.FleetPlant.Sample(epoch, sub)
}

func (p auditPlant) Publish(t *dispatch.Table, now float64) bool {
	ok := p.FleetPlant.Publish(t, now)
	p.audit("control publish")
	return ok
}

// TestFleetSoak is the fence half of the all-planes soak: 4 replicas with
// the sub-slot controller on, a flash crowd on front-end 0 for the whole
// run and a seeded storm of planner timeouts, errors and panics, replica
// kills, partitions and publisher outages; the driver plans through the
// resilient chain. After every slot and around every control tick it
// audits that no replica's served (epoch, sub) ever goes back or passes
// the publisher's current stamp, that no request is answered Invalid, and
// that each replica's gateway Stats reconcile exactly with the tallies
// the generator fired at it. Every slot one sampled request on one live
// replica must cost Handle 0 allocations. At the end the post-GC live
// heap must sit within soakHeapSlack of its slot-50 reading.
func TestFleetSoak(t *testing.T) {
	o := core.NewOptimized()
	o.Stats = &core.SearchStats{}
	fleetSoak(t, testSimConfig(*soakLength), o, func() string { return fmt.Sprintf("%+v", *o.Stats) }, nil)
}

// TestFleetSoakMPCFeeds is TestFleetSoak's sibling with every plane on:
// the planner is the deferring MPC (batch class deferrable one slot,
// energy prices spiking every third slot) behind the same resilient chain
// and planner faults, and the inputs come
// through the feed layer, which the storm also hits with dropouts, noise
// and delays. Besides the fence, reconciliation, allocation and heap
// audits, every slot's deferral ledger is audited as it is settled, per
// class, to 1e-9 relative: the backlog carried out is the backlog carried
// in less what drained and what was shed plus what was deferred; the
// slot's arrivals are its new work served plus deferred plus lost; and the
// backlog carried in is the previous settled slot's carried out.
func TestFleetSoakMPCFeeds(t *testing.T) {
	soakSlots := *soakLength
	cfg := testSimConfig(soakSlots)
	cfg.Feeds = &feed.Config{Seed: 4}
	// Every third slot the energy price makes batch work (3.5–4 Wh a request)
	// cost more than either of its levels pays, so the planner defers it
	// to the next slot, where it drains.
	for _, p := range cfg.Prices {
		p.Prices = []float64{p.Prices[0], p.Prices[0], 20}
	}
	tap := &ledgerTap{Planner: mpc.New(mpc.Config{Horizon: 3, MaxDefer: []int{0, 1}, EndSlot: soakSlots})}
	engine := &lastEngine{}
	tap.Instrument(obs.NewScope(nil, engine))
	var prev []float64
	audited, deferred, drained := 0, 0.0, 0.0
	fleetSoak(t, cfg, tap, func() string { return fmt.Sprint(engine.values) }, func(abs int) {
		for _, st := range tap.settled {
			l := st.ledger
			for k := range l.CarriedIn {
				servedNew := st.served[k] - l.Drained[k]
				for _, c := range [...]struct {
					what      string
					got, want float64
				}{
					{"backlog out", l.BacklogOut[k], l.CarriedIn[k] - l.Drained[k] - l.Shed[k] + l.DeferredNew[k]},
					{"arrivals", st.arrivals[k], servedNew + l.DeferredNew[k] + l.LostNew[k]},
				} {
					if math.Abs(c.got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
						t.Fatalf("slot %d class %d: %s %.17g, the ledger says %.17g: %+v", abs, k, c.what, c.got, c.want, l)
					}
				}
				if prev != nil && math.Abs(l.CarriedIn[k]-prev[k]) > 1e-9*math.Max(1, prev[k]) {
					t.Fatalf("slot %d class %d: carried in %.17g, the last settled slot carried out %.17g", abs, k, l.CarriedIn[k], prev[k])
				}
			}
			prev = l.BacklogOut
			audited++
			deferred += core.Total(l.DeferredNew)
			drained += core.Total(l.Drained)
		}
		tap.settled = tap.settled[:0]
	})
	if audited < soakSlots/2 || deferred == 0 || drained == 0 {
		t.Fatalf("vacuous ledger audit: %d slots settled, %g deferred, %g drained", audited, deferred, drained)
	}
	t.Logf("%d ledgers audited: %.1f req/s deferred, %.1f drained", audited, deferred, drained)
}

// ledgerTap records each ledger the host settles on its planner, with
// the slot's arrivals and committed service per class.
type ledgerTap struct {
	*mpc.Planner
	settled []settledSlot
}

type settledSlot struct {
	ledger           core.BacklogSlot
	arrivals, served []float64
}

func (t *ledgerTap) CommitSlot(actual *core.Input, committed *core.Plan) core.BacklogSlot {
	l := t.Planner.CommitSlot(actual, committed)
	st := settledSlot{ledger: l}
	for k := range l.CarriedIn {
		st.arrivals = append(st.arrivals, actual.Offered(k))
		st.served = append(st.served, committed.Served(k))
	}
	t.settled = append(t.settled, st)
	return l
}

// lastEngine keeps the values of the last engine event it is sent: a held
// planner's ladder mix for the differential to name. The soak emits from
// one goroutine.
type lastEngine struct{ values map[string]float64 }

func (l *lastEngine) Emit(ev obs.Event) {
	if ev.Kind == obs.KindEngine {
		l.values = ev.Values
	}
}

// planTap records what the primary tier last planned: its input and the
// objective of the plan it returned, before any gate touched the plan.
type planTap struct {
	core.Planner
	in  *core.Input
	obj float64
}

func (p *planTap) Plan(in *core.Input) (*core.Plan, error) {
	plan, err := p.Planner.Plan(in)
	if err == nil {
		p.in, p.obj = in, plan.Objective
	}
	return plan, err
}

// Unwrap exposes the tapped planner's capabilities, as the injector does.
func (p *planTap) Unwrap() core.Planner { return p.Planner }

// differential re-plans the slot the held primary tier just committed on a
// fresh planner of its kind, with no warm state and no fault (freshReplan).
// The fresh plan must pass the chain's gate and reach the held objective
// to 1e-7 relative; a miss names the slot and the held planner's ladder
// mix.
func differential(t *testing.T, abs int, tap *planTap, ladder func() string) {
	t.Helper()
	held, got, err := freshReplan(tap)
	if err != nil {
		t.Fatalf("slot %d: the fresh plan fails: %v; held ladder %s", abs, err, ladder())
	}
	if math.Abs(got-held) > 1e-7*math.Max(1, math.Abs(held)) {
		t.Fatalf("slot %d: held plan reaches %.17g, a fresh planner %.17g; held ladder %s", abs, held, got, ladder())
	}
}

// freshReplan solves again what the tapped planner last planned: the
// window an MPC solved, on the cold horizon planner, held to
// core.VerifyHorizon; otherwise the slot's input, on a new core.Optimized,
// held to core.Verify. It returns the held and the fresh objective and the
// gate's verdict.
func freshReplan(tap *planTap) (held, got float64, err error) {
	if w, ok := tap.Planner.(interface {
		Window() (*core.HorizonInput, *core.HorizonPlan)
	}); ok {
		if hin, hp := w.Window(); hin != nil {
			fresh, err := (&core.HorizonPlanner{}).Plan(hin)
			if err != nil {
				return 0, 0, err
			}
			return hp.Objective, fresh.Objective, core.VerifyHorizon(hin, fresh, core.VerifyTol)
		}
	}
	fresh, err := core.NewOptimized().Plan(tap.in)
	if err != nil {
		return 0, 0, err
	}
	return tap.obj, fresh.Objective, core.Verify(tap.in, fresh, core.VerifyTol)
}

// fleetSoak runs the all-planes soak of TestFleetSoak with primary as the
// resilient chain's first tier, calling slotDone after each slot's audits.
// A run with feeds also has its feeds hit by the storm. Every slot the
// primary tier commits is re-planned fresh (differential); ladder reports
// the held planner's solver counters for a miss.
func fleetSoak(t *testing.T, cfg sim.Config, primary core.Planner, ladder func() string, slotDone func(abs int)) {
	if testing.Short() {
		t.Skip("soak: skipped under -short")
	}
	// Slot 0 stays clean so every replica holds a table before the storm,
	// which strikes as often in a long soak as in 200 slots.
	soakSlots := cfg.Slots
	scale := max(1, soakSlots/200)
	sc := fault.StormConfig{
		Seed: 21, Start: 1, Slots: soakSlots - 1,
		Centers: cfg.Sys.L(), FrontEnds: cfg.Sys.S(),
		PlannerFaults: 6 * scale,
		Replicas:      4,
		ReplicaKills:  12 * scale, Partitions: 12 * scale, PublisherOutages: 8 * scale,
	}
	if cfg.Feeds != nil {
		sc.FeedDropouts, sc.FeedNoises, sc.FeedDelays = 6*scale, 6*scale, 6*scale
	}
	storm, err := fault.Storm(sc)
	if err != nil {
		t.Fatal(err)
	}
	storm.Events = append(storm.Events, flashSchedule(soakSlots, 2).Events...)
	cfg.Faults = storm
	scope := obs.NewScope(obs.NewRegistry(), nil)
	tap := &planTap{Planner: primary}
	chain := resilient.Wrap(&fault.Injector{Planner: tap, Sched: storm})
	d, src := driver(t, cfg, chain, scope)
	f, err := cluster.NewFleet(cfg.Sys, testDispatch, cluster.Config{Replicas: 4}, d, storm, scope)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplayer(Config{Seed: 13, Slots: soakSlots}, f, src)
	if err != nil {
		t.Fatal(err)
	}
	per := make([]ReplicaStat, len(f.Replicas))
	served := make([]dispatch.Header, len(f.Replicas))
	var published dispatch.Header
	audit := func(when string) {
		t.Helper()
		if cur := f.Pub.Current(); cur != nil {
			if published.Cmp(cur.Epoch, cur.Sub) > 0 {
				t.Fatalf("%s: publisher went back from (%d, %d) to (%d, %d)", when, published.Epoch, published.Sub, cur.Epoch, cur.Sub)
			}
			published.Epoch, published.Sub = cur.Epoch, cur.Sub
		}
		for i, r := range f.Replicas {
			st := r.Gateway().Stats(0)
			if st.Slot >= 0 {
				if served[i].Cmp(st.Epoch, st.Sub) > 0 || published.Cmp(st.Epoch, st.Sub) < 0 {
					t.Fatalf("%s: %s serves (%d, %d) after (%d, %d), publisher at (%d, %d)", when, r.ID,
						st.Epoch, st.Sub, served[i].Epoch, served[i].Sub, published.Epoch, published.Sub)
				}
				served[i].Epoch, served[i].Sub = st.Epoch, st.Sub
			}
			g := per[i].Counts
			if g.Invalid != 0 || st.TotalRequests != g.Offered || st.TotalAdmitted != g.Admitted ||
				st.TotalShed != g.ShedBudget+g.ShedUnplanned {
				t.Fatalf("%s: %s gateway %d/%d/%d vs generator %d/%d/%d, %d invalid", when, r.ID,
					st.TotalRequests, st.TotalAdmitted, st.TotalShed,
					g.Offered, g.Admitted, g.ShedBudget+g.ShedUnplanned, g.Invalid)
			}
		}
	}
	rp.ctrl = control.NewController(testDispatch, auditPlant{rp.plant, audit}, nil)

	var heap50 uint64
	var actuations, outages, stale, rechecked int
	live := map[int]bool{}
	rejected := map[resilient.Reason]int{}
	for abs := 0; abs < soakSlots; abs++ {
		start := float64(abs) * cfg.Sys.Slot()
		res, err := rp.slot(abs, start, per)
		if err != nil {
			t.Fatalf("slot %d: %v", abs, err)
		}
		if res.Invalid != 0 {
			t.Fatalf("slot %d: %d requests answered Invalid", abs, res.Invalid)
		}
		// A publisher outage plans nothing: the decision is an older slot's.
		if dec := chain.LastDecision(); dec.Slot == abs {
			for _, at := range dec.Attempts {
				if at.Reason != "" {
					rejected[at.Reason]++
				}
			}
			if dec.Tier == 0 {
				differential(t, abs, tap, ladder)
				rechecked++
			}
		}
		sampleHandle(t, f, abs, start+cfg.Sys.Slot(), per)
		audit("after slot")
		actuations += res.Actuations
		live[res.Live] = true
		stale += res.Stale
		if res.Epoch == 0 {
			outages++
		}
		if slotDone != nil {
			slotDone(abs)
		}
		if abs == 50 {
			heap50 = liveHeap()
		}
	}
	if actuations == 0 || len(live) == 1 || outages == 0 || stale == 0 || rechecked < soakSlots/2 ||
		rejected[resilient.ReasonTimeout] == 0 || rejected[resilient.ReasonError] == 0 || rejected[resilient.ReasonPanic] == 0 {
		t.Fatalf("vacuous soak: %d actuations, live counts %v, %d outage slots, %d stale replica-slots, %d slots re-planned fresh, tier rejections %v",
			actuations, live, outages, stale, rechecked, rejected)
	}
	// The race detector's instrumentation moves the heap; the audits above
	// still run under it.
	end := liveHeap()
	t.Logf("%d actuations, %d outage slots, %d stale replica-slots, %d slots re-planned fresh, tier rejections %v; live heap %d B at slot 50, %d B at slot %d (%+.1f B a slot)",
		actuations, outages, stale, rechecked, rejected, heap50, end, soakSlots, (float64(end)-float64(heap50))/float64(soakSlots-50))
	if !race.Enabled && end > heap50+soakHeapSlack {
		t.Fatalf("live heap grew from %d B at slot 50 to %d B at slot %d (slack %d B)", heap50, end, soakSlots, soakHeapSlack)
	}
}

// sampleHandle fires one request of a (type, front-end) that rotates with
// the slot at one live replica, at the slot's end, under
// testing.AllocsPerRun, and requires Handle to allocate nothing. Each
// call's outcome joins that replica's generator tally, so the exact Stats
// reconciliation still holds. The race detector moves allocations to the
// heap, so under it the sampled calls are fired but not counted.
func sampleHandle(t *testing.T, f *cluster.Fleet, abs int, now float64, per []ReplicaStat) {
	t.Helper()
	var ready []int
	for _, ri := range f.Live(abs) {
		if f.Replicas[ri].Ready() {
			ready = append(ready, ri)
		}
	}
	ri := ready[abs%len(ready)]
	gw := f.Replicas[ri].Gateway()
	sys := gw.System()
	k, s := abs%sys.K(), (abs/sys.K())%sys.S()
	allocs := testing.AllocsPerRun(1, func() { per[ri].add(gw.Handle(k, s, now).Outcome) })
	if !race.Enabled && allocs != 0 {
		t.Fatalf("slot %d: Handle(%d, %d) on %s made %v allocations, want 0", abs, k, s, f.Replicas[ri].ID, allocs)
	}
}

// liveHeap returns the heap still in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
