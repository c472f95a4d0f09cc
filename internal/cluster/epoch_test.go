package cluster

import (
	"errors"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/dispatch"
	"profitlb/internal/obs"
	"profitlb/internal/resilient"
)

// flakyTier fails every odd slot and plans the others with its planner.
type flakyTier struct{ core.Planner }

func (f flakyTier) Name() string { return "flaky" }

func (f flakyTier) Plan(in *core.Input) (*core.Plan, error) {
	if in.Slot%2 == 1 {
		return nil, errors.New("flaky tier")
	}
	return f.Planner.Plan(in)
}

// TestPlannerEventsJoinReplicaEpochs: on the serving plane a slot's
// planner-side events — each engine summary, the chain's escalations and
// its tier commit — carry the epoch the slot's commit publishes, so they
// join every replica's epoch-applied event of the slot on (Slot, Epoch).
func TestPlannerEventsJoinReplicaEpochs(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 11, SlotSeconds: 60}
	events := &obs.Collector{}
	scope := obs.NewScope(obs.NewRegistry(), events)
	drv := testDriver(sys, dcfg, scope)
	primary, second := core.NewOptimized(), core.NewOptimized()
	primary.Obs, second.Obs = scope, scope
	chain := resilient.New(flakyTier{primary}, second)
	chain.Obs = scope
	drv.Planner = chain
	const replicas, slots = 4, 5
	f, err := NewFleet(sys, dcfg, testClusterConfig(replicas), drv, nil, scope)
	if err != nil {
		t.Fatal(err)
	}
	epoch := map[int]uint64{}
	for i := 0; i < slots; i++ {
		pub, err := f.BeginSlot(i, float64(i)*sys.Slot())
		if err != nil {
			t.Fatal(err)
		}
		epoch[i] = pub.Epoch
	}
	planner := map[string]int{}
	applied := map[int]int{}
	for _, ev := range events.Events() {
		switch ev.Kind {
		case obs.KindEngine, obs.KindTierCommit, obs.KindEscalation:
			planner[ev.Kind]++
			if ev.Epoch == 0 || ev.Epoch != epoch[ev.Slot] {
				t.Fatalf("slot %d %s event of %s carries epoch %d, the slot published %d", ev.Slot, ev.Kind, ev.Planner, ev.Epoch, epoch[ev.Slot])
			}
		case obs.KindEpochApplied:
			applied[ev.Slot]++
			if ev.Epoch != epoch[ev.Slot] {
				t.Fatalf("replica %s applied epoch %d at slot %d, which published %d", ev.Replica, ev.Epoch, ev.Slot, epoch[ev.Slot])
			}
		}
	}
	// One Optimized call a slot, the flaky tier's escalation on slots 1
	// and 3, and one commit a slot.
	if planner[obs.KindEngine] != slots || planner[obs.KindEscalation] != 2 || planner[obs.KindTierCommit] != slots {
		t.Fatalf("planner events %v, want %d engine, 2 escalation and %d tier-commit", planner, slots, slots)
	}
	for i := 0; i < slots; i++ {
		if applied[i] != replicas {
			t.Fatalf("slot %d applied by %d replicas, want %d", i, applied[i], replicas)
		}
	}
}

// hookTier runs hook inside each Plan call, before planning: the window in
// which the slot's epoch is minted and its table not yet published.
type hookTier struct {
	core.Planner
	hook func(in *core.Input)
}

func (h hookTier) Plan(in *core.Input) (*core.Plan, error) {
	h.hook(in)
	return h.Planner.Plan(in)
}

// TestRespreadWaitsForThePlannedSlot: a replica that joins while a slot is
// being planned must not get a re-spread, which would mint an epoch past
// the one the slot's table carries and fence that table out at every
// replica for the rest of the slot. Respread returns nil; the slot's
// publish spreads over the new membership under its own epoch, and every
// replica applies it.
func TestRespreadWaitsForThePlannedSlot(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 5, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	const replicas, slots, joinAt = 4, 3, 1
	f, err := NewFleet(sys, dcfg, testClusterConfig(replicas), drv, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	planned := map[int]uint64{}
	drv.Planner = hookTier{Planner: core.NewOptimized(), hook: func(in *core.Input) {
		planned[in.Slot] = in.Epoch
		if in.Slot != joinAt {
			return
		}
		f.Pub.Beat("late", in.Slot)
		if rp := f.Pub.Respread(in.Slot); rp != nil {
			t.Errorf("re-spread during slot %d's planning published epoch %d past the slot's %d", in.Slot, rp.Epoch, in.Epoch)
			for _, r := range f.Replicas { // as each replica's long poll would
				r.Apply(rp, float64(in.Slot)*sys.Slot())
			}
		}
	}}
	for i := 0; i < slots; i++ {
		pub, err := f.BeginSlot(i, float64(i)*sys.Slot())
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if pub.Epoch == 0 || pub.Epoch != planned[i] {
			t.Fatalf("slot %d published epoch %d, its planner saw %d", i, pub.Epoch, planned[i])
		}
		if i == joinAt && len(pub.Members) != replicas+1 {
			t.Fatalf("slot %d spread over %v, want the %d replicas and the joiner", i, pub.Members, replicas)
		}
		for _, r := range f.Replicas {
			if r.Epoch() != pub.Epoch {
				t.Fatalf("slot %d: replica %s holds epoch %d, the slot published %d", i, r.ID, r.Epoch(), pub.Epoch)
			}
		}
	}
}
