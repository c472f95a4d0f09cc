package cluster

import (
	"runtime"
	"sync"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/dispatch"
	"profitlb/internal/fault"
	"profitlb/internal/obs"
	"profitlb/internal/tuf"
)

// testSystem is the dispatch test topology: 2 classes, 2 front-ends,
// 2 centers, sized so the optimized planner serves everything.
func testSystem() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 0.01, Deadline: 0.01}}),
				TransferCostPerMile: 1e-6},
			{Name: "batch", TUF: tuf.MustNew([]tuf.Level{
				{Utility: 0.05, Deadline: 0.05}, {Utility: 0.02, Deadline: 0.25}}),
				TransferCostPerMile: 2e-6},
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

// stubSource replays one planner input at every slot.
type stubSource struct{ in *core.Input }

func (s *stubSource) PlannerInput(abs int) (*core.Input, error) {
	in := *s.in
	in.Slot = abs
	return &in, nil
}

// testDriver wires a slot engine over the fixture topology.
func testDriver(sys *datacenter.System, dcfg dispatch.Config, scope *obs.Scope) *dispatch.Driver {
	in := &core.Input{
		Sys:      sys,
		Arrivals: [][]float64{{30000, 2000}, {24000, 1500}},
		Prices:   []float64{0.05, 0.08},
	}
	return &dispatch.Driver{
		Gateway: dispatch.NewGateway(sys, dcfg, scope),
		Planner: core.NewOptimized(),
		Source:  &stubSource{in: in},
	}
}

// testClusterConfig keeps the tunables small and explicit for tests.
func testClusterConfig(replicas int) Config {
	return Config{
		Replicas:   replicas,
		PollWaitMs: 50, MaxAttempts: 3, BaseBackoffMs: 1, TimeoutMs: 500,
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Replicas: 4}.WithDefaults()).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Replicas: -1},
		{Replicas: 100},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: %+v accepted", i, c)
		}
	}
}

// TestConstantsAreTheOldDefaults pins every setting that used to be a
// cluster key to the value its default was.
func TestConstantsAreTheOldDefaults(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"staleSlots", staleSlots, 2},
		{"staleShare (staleFactor)", staleShare, 0.5},
		{"failThreshold", failThreshold, 2},
	} {
		if c.got != c.want {
			t.Errorf("%s = %g, the key's default was %g", c.name, c.got, c.want)
		}
	}
}

// TestPublisherMembership drives join → evict → rejoin through Beat and
// SweepHealth and checks that each membership change forces exactly one
// re-spread epoch.
func TestPublisherMembership(t *testing.T) {
	dcfg := dispatch.Config{Seed: 3, SlotSeconds: 60}
	drv := testDriver(testSystem(), dcfg, nil)
	p := NewPublisher(testClusterConfig(0), drv, nil)

	p.Beat("r0", 0)
	p.Beat("r1", 0)
	if got := p.Members(); len(got) != 2 || got[0] != "r0" || got[1] != "r1" {
		t.Fatalf("members after joins: %v", got)
	}
	p.SweepHealth(0) // consumes the joining beats, as a slot cycle would
	pub, err := p.PublishSlot(0)
	if err != nil {
		t.Fatal(err)
	}
	if pub.Epoch != 1 || len(pub.Members) != 2 {
		t.Fatalf("first publication: epoch %d members %v", pub.Epoch, pub.Members)
	}
	// No membership change: re-spread must be a no-op.
	if rp := p.Respread(0); rp != nil {
		t.Fatalf("re-spread without change published epoch %d", rp.Epoch)
	}

	// r1 goes silent: failThreshold consecutive missed sweeps evict it.
	p.Beat("r0", 1)
	if ev := p.SweepHealth(1); len(ev) != 0 {
		t.Fatalf("evicted %v after one miss (threshold 2)", ev)
	}
	p.Beat("r0", 2)
	if ev := p.SweepHealth(2); len(ev) != 1 || ev[0] != "r1" {
		t.Fatalf("sweep 2 evicted %v, want [r1]", ev)
	}
	rp := p.Respread(2)
	if rp == nil || rp.Epoch != 2 || len(rp.Members) != 1 || rp.Members[0] != "r0" {
		t.Fatalf("post-evict re-spread: %+v", rp)
	}

	// r1 comes back: an unknown ID beating is a rejoin.
	p.Beat("r1", 3)
	rp = p.Respread(3)
	if rp == nil || rp.Epoch != 3 || len(rp.Members) != 2 {
		t.Fatalf("post-rejoin re-spread: %+v", rp)
	}
	if rp.Members[0] != "r0" || rp.Members[1] != "r1" {
		t.Fatalf("rejoin order: %v", rp.Members)
	}
}

// TestReplicaApplyFences: stale, duplicate and not-a-member publications
// are counted and never disturb the serving state.
func TestReplicaApplyFences(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 5, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, drv, nil)
	r := NewReplica("r0", sys, dcfg, ccfg, nil)

	p.Beat("r0", 0)
	pub1, err := p.PublishSlot(0)
	if err != nil {
		t.Fatal(err)
	}
	installed, err := r.Apply(pub1, 0)
	if err != nil || !installed {
		t.Fatalf("first apply: %v, %v", installed, err)
	}
	if !r.Ready() || r.Epoch() != pub1.Epoch {
		t.Fatalf("replica after apply: ready %v epoch %d", r.Ready(), r.Epoch())
	}

	// Duplicate delivery.
	if installed, err := r.Apply(pub1, 0); err != nil || installed {
		t.Fatalf("duplicate apply: %v, %v", installed, err)
	}
	// Stale delivery.
	pub2, err := p.PublishSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if installed, err := r.Apply(pub2, 60); err != nil || !installed {
		t.Fatalf("apply epoch 2: %v, %v", installed, err)
	}
	if installed, err := r.Apply(pub1, 60); err != nil || installed {
		t.Fatalf("stale apply: %v, %v", installed, err)
	}
	if st := r.Gateway().Stats(0); st.FencedStale != 1 || st.FencedDup != 1 {
		t.Fatalf("gateway fence counters (%d, %d), want (1, 1)", st.FencedStale, st.FencedDup)
	}
	// Not a member.
	alien := &Publication{Epoch: pub2.Epoch + 1, Slot: 2, Members: []string{"other"}, Table: pub2.Table}
	if installed, err := r.Apply(alien, 120); err != nil || installed {
		t.Fatalf("not-member apply: %v, %v", installed, err)
	}
	if r.FencedNotMember() != 1 {
		t.Fatalf("FencedNotMember = %d, want 1", r.FencedNotMember())
	}
	// Corrupt payload.
	if _, err := r.Apply(nil, 0); err == nil {
		t.Fatal("nil publication accepted")
	}
	bad := *pub2
	w := *pub2.Table
	w.Epoch = pub2.Epoch + 5
	w.SlotLen = 0
	bad.Epoch = pub2.Epoch + 5
	bad.Table = &w
	if _, err := r.Apply(&bad, 0); err == nil {
		t.Fatal("corrupt wire table accepted")
	}
	if r.Epoch() != pub2.Epoch {
		t.Fatalf("fenced deliveries moved the replica to epoch %d", r.Epoch())
	}
}

// TestStampReadsAreConsistent: while one goroutine applies a rising
// (epoch, sub) sequence, readers of Gateway.Stats, Replica.Epoch and
// Replica.Sub only ever see what one installed table carried — a (slot,
// epoch, sub) triple that was installed, never two tables' halves — and
// never see the stamp go back. Every install carries its own slot, so a
// snapshot pairing one table's slot with another's stamp shows.
func TestStampReadsAreConsistent(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 59, SlotSeconds: 60}
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, testDriver(sys, dcfg, nil), nil)
	p.Beat("r0", 0)
	pub, err := p.PublishSlot(0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica("r0", sys, dcfg, ccfg, nil)
	const epochs, subs, readers = 500, 4, 4
	installed := func(slot int, epoch, sub uint64) bool {
		return slot == -1 && epoch == 0 && sub == 0 || // nothing installed yet
			epoch >= 1 && epoch <= epochs && sub < subs && slot == int(epoch*subs+sub)
	}
	done := make(chan struct{})
	var wg, started sync.WaitGroup
	started.Add(readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			var last dispatch.Header
			for {
				select {
				case <-done:
					return
				default:
				}
				st := r.Gateway().Stats(0)
				if !installed(st.Slot, st.Epoch, st.Sub) || last.Cmp(st.Epoch, st.Sub) > 0 {
					t.Errorf("Stats read (slot %d, epoch %d, sub %d) after (%d, %d): no installed table carried it",
						st.Slot, st.Epoch, st.Sub, last.Epoch, last.Sub)
					return
				}
				last.Epoch, last.Sub = st.Epoch, st.Sub
				if e, s := r.Epoch(), r.Sub(); e < last.Epoch || e > epochs || s >= subs {
					t.Errorf("replica read epoch %d sub %d after Stats read (%d, %d)", e, s, last.Epoch, last.Sub)
					return
				}
			}
		}()
	}
	started.Wait()
	for e := uint64(1); e <= epochs; e++ {
		for s := uint64(0); s < subs; s++ {
			w := *pub.Table
			w.Epoch, w.Sub, w.Slot = e, s, int(e*subs+s)
			d := &Publication{Epoch: e, Sub: s, Slot: w.Slot, Members: []string{"r0"}, Table: &w}
			if ok, err := r.Apply(d, float64(e)*sys.Slot()); !ok || err != nil {
				t.Fatalf("apply (%d, %d): %v, %v", e, s, ok, err)
			}
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
}

// TestApplyTimesTheSwap: a scoped replica's apply lands a positive
// decode + fit + subdivide + install time in dispatch_swap_seconds (it
// used to pass 0 and the histogram read 0 for every fleet install); a
// fenced delivery installs nothing and observes nothing.
func TestApplyTimesTheSwap(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 5, SlotSeconds: 60}
	reg := obs.NewRegistry()
	p := NewPublisher(testClusterConfig(0), testDriver(sys, dcfg, nil), nil)
	r := NewReplica("r0", sys, dcfg, Config{}, obs.NewScope(reg, nil))
	p.Beat("r0", 0)
	pub, err := p.PublishSlot(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []bool{true, false} { // the second delivery is a duplicate
		if installed, err := r.Apply(pub, 0); err != nil || installed != want {
			t.Fatalf("apply: installed %v (%v), want %v", installed, err, want)
		}
	}
	h := reg.Snapshot().Histograms["dispatch_swap_seconds"]
	if h.Count != 1 || !(h.Sum > 0) {
		t.Fatalf("dispatch_swap_seconds count %d sum %g, want one positive observation", h.Count, h.Sum)
	}
}

// TestReplicaStaleTTLDowngrade: missed slot boundaries grow staleness,
// crossing the TTL downgrades to conservative-shed serving on the last
// good epoch, and a fresh epoch clears the downgrade.
func TestReplicaStaleTTLDowngrade(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 7, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, drv, nil)
	r := NewReplica("r0", sys, dcfg, ccfg, nil)

	// Ticking before any plan is a no-op, not a crash.
	r.Tick(0, 0)
	if r.Ready() || r.Degraded() {
		t.Fatal("un-applied replica claims state")
	}

	p.Beat("r0", 0)
	pub, err := p.PublishSlot(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(pub, 0); err != nil {
		t.Fatal(err)
	}
	T := sys.Slot()
	r.Tick(0, 0)
	if r.Staleness() != 0 || r.Degraded() {
		t.Fatalf("fresh replica: staleness %d degraded %v", r.Staleness(), r.Degraded())
	}
	r.Tick(1, T)
	if r.Staleness() != 1 || r.Degraded() {
		t.Fatalf("one missed boundary: staleness %d degraded %v", r.Staleness(), r.Degraded())
	}
	full := r.Gateway().Table().Lanes[0].Rate
	r.Tick(2, 2*T)
	if r.Staleness() != 2 || !r.Degraded() {
		t.Fatalf("TTL crossed: staleness %d degraded %v", r.Staleness(), r.Degraded())
	}
	tab := r.Gateway().Table()
	if !tab.Degraded || tab.Tier != "stale" {
		t.Fatalf("downgraded table: degraded %v tier %q", tab.Degraded, tab.Tier)
	}
	if got := tab.Lanes[0].Rate; got != full*staleShare {
		t.Fatalf("downgraded lane rate %g, want %g", got, full*staleShare)
	}
	// Still serving: requests shed or admit, never error.
	if out := r.Gateway().Handle(0, 0, 2*T).Outcome; out == dispatch.Invalid {
		t.Fatal("downgraded replica answered Invalid")
	}
	// The downgrade happens once, not once per tick.
	r.Tick(3, 3*T)
	if got := r.Gateway().Table().Lanes[0].Rate; got != full*staleShare {
		t.Fatalf("second tick re-scaled to %g", got)
	}

	// Recovery: the next epoch clears staleness and the downgrade.
	pub2, err := p.PublishSlot(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(pub2, 4*T); err != nil {
		t.Fatal(err)
	}
	if r.Staleness() != 0 || r.Degraded() {
		t.Fatalf("after recovery: staleness %d degraded %v", r.Staleness(), r.Degraded())
	}
	if tab := r.Gateway().Table(); tab.Degraded {
		t.Fatal("recovered table still degraded")
	}
}

// TestFleetCleanRun: a healthy fleet advances one epoch per slot, every
// replica applies it, and the replica shares sum exactly to the
// published plan.
func TestFleetCleanRun(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 11, SlotSeconds: 60}
	scope := obs.NewScope(obs.NewRegistry(), nil)
	drv := testDriver(sys, dcfg, scope)
	f, err := NewFleet(sys, dcfg, testClusterConfig(3), drv, nil, scope)
	if err != nil {
		t.Fatal(err)
	}
	T := sys.Slot()
	for i := 0; i < 4; i++ {
		pub, err := f.BeginSlot(i, float64(i)*T)
		if err != nil {
			t.Fatal(err)
		}
		if pub.Epoch != uint64(i+1) {
			t.Fatalf("slot %d published epoch %d, want %d", i, pub.Epoch, i+1)
		}
		if len(pub.Members) != 3 {
			t.Fatalf("slot %d members %v", i, pub.Members)
		}
		full, err := dispatch.FromWire(pub.Table)
		if err != nil {
			t.Fatal(err)
		}
		for li := range full.Lanes {
			var sum float64
			for _, r := range f.Replicas {
				sum += r.Gateway().Table().Lanes[li].Rate
			}
			if sum != full.Lanes[li].Rate {
				t.Fatalf("slot %d lane %d shares sum %g, want exactly %g", i, li, sum, full.Lanes[li].Rate)
			}
		}
		for _, r := range f.Replicas {
			if r.Epoch() != pub.Epoch || r.Staleness() != 0 || r.Degraded() {
				t.Fatalf("slot %d replica %s: epoch %d staleness %d degraded %v",
					i, r.ID, r.Epoch(), r.Staleness(), r.Degraded())
			}
		}
		if !f.Ready(i) {
			t.Fatalf("slot %d fleet not ready", i)
		}
	}
}

// TestFleetKillEvictRejoin: a killed replica is evicted after the miss
// threshold (its share re-spread over the survivors), and rejoins with a
// fresh epoch when it recovers.
func TestFleetKillEvictRejoin(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 13, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.ReplicaKill, Replica: 1, From: 2, To: 4},
	}}
	f, err := NewFleet(sys, dcfg, testClusterConfig(3), drv, sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	T := sys.Slot()
	members := make(map[int]int)
	for i := 0; i < 7; i++ {
		pub, err := f.BeginSlot(i, float64(i)*T)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = len(pub.Members)
	}
	// Slot 2: first miss (members unchanged). Slot 3: second miss →
	// evicted before the publish, so slot 3 already spreads over 2.
	want := map[int]int{0: 3, 1: 3, 2: 3, 3: 2, 4: 2, 5: 3, 6: 3}
	for slot, n := range want {
		if members[slot] != n {
			t.Fatalf("slot %d spread over %d members, want %d (all: %v)", slot, members[slot], n, members)
		}
	}
	// After rejoin every replica is back on the current epoch.
	r1 := f.Replicas[1]
	if r1.Epoch() != f.Pub.Epoch() {
		t.Fatalf("rejoined replica at epoch %d, publisher at %d", r1.Epoch(), f.Pub.Epoch())
	}
	if r1.Degraded() || r1.Staleness() != 0 {
		t.Fatalf("rejoined replica: staleness %d degraded %v", r1.Staleness(), r1.Degraded())
	}
	// Survivors' shares summed to the full plan while the fleet was two.
	if members[3] != 2 {
		t.Fatal("eviction did not land in slot 3")
	}
}

// TestFleetPublisherOutage: a control-plane outage leaves the fleet
// serving its last epoch (staleness rising, requests still answered),
// a long outage triggers the conservative-shed downgrade, and the fleet
// reconverges within one slot of recovery.
func TestFleetPublisherOutage(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 17, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.PublisherOutage, From: 2, To: 3},
	}}
	f, err := NewFleet(sys, dcfg, testClusterConfig(2), drv, sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	T := sys.Slot()
	var lastEpoch uint64
	for i := 0; i < 2; i++ {
		pub, err := f.BeginSlot(i, float64(i)*T)
		if err != nil {
			t.Fatal(err)
		}
		lastEpoch = pub.Epoch
	}

	// Outage slot 2: no publication, replicas one slot stale, serving.
	pub, err := f.BeginSlot(2, 2*T)
	if err != nil {
		t.Fatal(err)
	}
	if pub != nil {
		t.Fatalf("outage slot published epoch %d", pub.Epoch)
	}
	for _, r := range f.Replicas {
		if r.Epoch() != lastEpoch || r.Staleness() != 1 || r.Degraded() {
			t.Fatalf("outage slot replica %s: epoch %d staleness %d degraded %v",
				r.ID, r.Epoch(), r.Staleness(), r.Degraded())
		}
		if out := r.Gateway().Handle(0, 0, 2*T).Outcome; out == dispatch.Invalid {
			t.Fatal("replica errored during outage")
		}
	}

	// Outage slot 3: staleness hits the TTL → conservative shed.
	if _, err := f.BeginSlot(3, 3*T); err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Replicas {
		if r.Staleness() != 2 || !r.Degraded() {
			t.Fatalf("TTL slot replica %s: staleness %d degraded %v", r.ID, r.Staleness(), r.Degraded())
		}
		if out := r.Gateway().Handle(0, 0, 3*T).Outcome; out == dispatch.Invalid {
			t.Fatal("degraded replica errored")
		}
	}

	// Recovery slot 4: one slot to reconverge.
	pub, err = f.BeginSlot(4, 4*T)
	if err != nil {
		t.Fatal(err)
	}
	if pub == nil {
		t.Fatal("no publication after recovery")
	}
	for _, r := range f.Replicas {
		if r.Epoch() != pub.Epoch || r.Staleness() != 0 || r.Degraded() {
			t.Fatalf("recovered replica %s: epoch %d staleness %d degraded %v",
				r.ID, r.Epoch(), r.Staleness(), r.Degraded())
		}
	}
}

// TestFleetPartitionGoesStaleAlone: a partitioned replica keeps serving
// and goes stale while the rest of the fleet advances.
func TestFleetPartitionGoesStaleAlone(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 19, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.ReplicaPartition, Replica: 0, From: 1, To: 1},
	}}
	f, err := NewFleet(sys, dcfg, testClusterConfig(2), drv, sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	T := sys.Slot()
	if _, err := f.BeginSlot(0, 0); err != nil {
		t.Fatal(err)
	}
	pub, err := f.BeginSlot(1, T)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := f.Replicas[0], f.Replicas[1]
	if r0.Epoch() == pub.Epoch {
		t.Fatal("partitioned replica received the publication")
	}
	if r0.Staleness() != 1 {
		t.Fatalf("partitioned replica staleness %d, want 1", r0.Staleness())
	}
	if r1.Epoch() != pub.Epoch {
		t.Fatalf("healthy replica at epoch %d, want %d", r1.Epoch(), pub.Epoch)
	}
	// Partition heals before the miss threshold: no eviction happened.
	pub, err = f.BeginSlot(2, 2*T)
	if err != nil {
		t.Fatal(err)
	}
	if len(pub.Members) != 2 {
		t.Fatalf("members %v after healed partition", pub.Members)
	}
	if r0.Epoch() != pub.Epoch || r0.Staleness() != 0 {
		t.Fatalf("healed replica: epoch %d staleness %d", r0.Epoch(), r0.Staleness())
	}
}

// TestReplicaRejectsForeignTopology: a table that is sound in itself but
// cut for another topology — a join-mode replica pointed at a publisher
// running a different file — is refused like a corrupt payload, before
// the gateway is touched. Installed, its center and level indices would
// be looked up in this replica's system on every admitted request.
func TestReplicaRejectsForeignTopology(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 5, SlotSeconds: 60}
	ccfg := testClusterConfig(0)
	publish := func(drv *dispatch.Driver) *Publication {
		t.Helper()
		p := NewPublisher(ccfg, drv, nil)
		p.Beat("r0", 0)
		pub, err := p.PublishSlot(0)
		if err != nil {
			t.Fatal(err)
		}
		return pub
	}
	refused := func(name string, pub *Publication) {
		t.Helper()
		r := NewReplica("r0", sys, dcfg, ccfg, nil)
		installed, err := r.Apply(pub, 0)
		if err == nil || installed || r.Ready() {
			t.Errorf("%s: installed %v, ready %v, err %v; want refused", name, installed, r.Ready(), err)
		}
	}

	// The publisher's file has a third, cheapest center: same streams,
	// lanes routed to a center this replica has never heard of.
	foreign := testSystem()
	foreign.Centers = append(foreign.Centers, datacenter.DataCenter{
		Name: "or", Servers: 8, Capacity: 1,
		ServiceRate: []float64{20000, 3500}, EnergyPerRequest: []float64{0.0001, 0.001},
	})
	for i := range foreign.FrontEnds {
		foreign.FrontEnds[i].DistanceMiles = append(foreign.FrontEnds[i].DistanceMiles, 100)
	}
	drv := testDriver(foreign, dcfg, nil)
	drv.Source.(*stubSource).in.Prices = []float64{0.05, 0.08, 0.01}
	pub := publish(drv)
	routed := false
	for _, ln := range pub.Table.Lanes {
		routed = routed || ln.L == 2
	}
	if !routed {
		t.Fatal("fixture: the foreign plan routes nothing to its third center")
	}
	refused("another topology file", pub)

	// One field at a time on a table cut for the right topology.
	good := publish(testDriver(sys, dcfg, nil))
	if installed, err := NewReplica("r0", sys, dcfg, ccfg, nil).Apply(good, 0); err != nil || !installed {
		t.Fatalf("own topology: %v, %v", installed, err)
	}
	for name, mutate := range map[string]func(w *dispatch.TableWire){
		"center out of range": func(w *dispatch.TableWire) { w.Lanes[0].L = sys.L() },
		"level out of range":  func(w *dispatch.TableWire) { w.Lanes[0].Q = sys.Classes[w.Lanes[0].K].TUF.NumLevels() },
		"negative level":      func(w *dispatch.TableWire) { w.Lanes[0].Q = -1 },
		"short serversOn":     func(w *dispatch.TableWire) { w.ServersOn = w.ServersOn[:1] },
		"another stream grid": func(w *dispatch.TableWire) {
			w.K++
			w.Arrivals = append(w.Arrivals, make([]float64, w.S))
		},
	} {
		bad := *good
		w := *good.Table
		w.Lanes = append([]dispatch.Lane(nil), good.Table.Lanes...)
		mutate(&w)
		if _, err := dispatch.FromWire(&w); err != nil {
			t.Fatalf("%s: fixture is rejected by FromWire itself (%v); it must be sound on its own terms", name, err)
		}
		bad.Table = &w
		refused(name, &bad)
	}
}
