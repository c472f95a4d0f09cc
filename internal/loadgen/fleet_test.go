package loadgen

import (
	"encoding/json"
	"testing"

	"profitlb/internal/cluster"
	"profitlb/internal/core"
	"profitlb/internal/fault"
	"profitlb/internal/obs"
	"profitlb/internal/sim"
)

// fleetHarness builds a fleet around the shared test scenario: the
// driver plans fleet-wide, the fleet subdivides across replicas.
func fleetHarness(t *testing.T, cfg sim.Config, replicas int, sch *fault.Schedule, scope *obs.Scope) (*cluster.Fleet, *sim.InputSource) {
	t.Helper()
	d, src := driver(t, cfg, core.NewOptimized(), scope)
	f, err := cluster.NewFleet(cfg.Sys, testDispatch, cluster.Config{Replicas: replicas}, d, sch, scope)
	if err != nil {
		t.Fatal(err)
	}
	return f, src
}

// reconcile checks every replica's gateway counters against the
// generator's per-replica ground truth, exactly: requests the balancer
// never fired cannot appear in a gateway, and every fired request must
// be accounted admitted or shed.
func reconcile(t *testing.T, f *cluster.Fleet, rep *Report, now float64) {
	t.Helper()
	for i, pr := range rep.PerReplica {
		st := f.Replicas[i].Gateway().Stats(now)
		if st.TotalRequests != pr.Offered || st.TotalAdmitted != pr.Admitted ||
			st.TotalShed != pr.ShedBudget+pr.ShedUnplanned {
			t.Errorf("replica %s: gateway %d/%d/%d vs generator %d/%d/%d",
				pr.ID, st.TotalRequests, st.TotalAdmitted, st.TotalShed,
				pr.Offered, pr.Admitted, pr.ShedBudget+pr.ShedUnplanned)
		}
	}
}

// TestFleetCleanScenario is the cluster acceptance gate: a 4-replica
// fleet replaying the clean scenario admits everything, every fat lane's
// fleet-aggregate achieved rate lands within 5% of the planned λ, and
// the fleet faces exactly the traffic a single gateway would.
func TestFleetCleanScenario(t *testing.T) {
	cfg := testSimConfig(4)
	reg := obs.NewRegistry()
	scope := obs.NewScope(reg, nil)
	f, src := fleetHarness(t, cfg, 4, nil, scope)
	rep, err := Run(f, src, Config{Seed: 1, Slots: cfg.Slots})
	if err != nil {
		t.Fatal(err)
	}
	offered, admitted, shed := rep.Totals()
	if offered == 0 {
		t.Fatal("no requests offered")
	}
	if shed != 0 {
		t.Fatalf("clean fleet scenario shed %d of %d requests", shed, offered)
	}
	if admitted != offered {
		t.Fatalf("admitted %d of %d offered with zero shed", admitted, offered)
	}
	if rep.Invalid() != 0 {
		t.Fatalf("%d invalid answers on the clean path", rep.Invalid())
	}
	if e := rep.MaxLaneError(500); e > 0.05 {
		t.Fatalf("max fleet lane rate error %.4f, want <= 0.05", e)
	}
	for i := range rep.Slots {
		s := &rep.Slots[i]
		if s.Epoch != uint64(i+1) {
			t.Fatalf("slot %d published epoch %d, want %d", s.Slot, s.Epoch, i+1)
		}
		if s.Live != 4 || s.Stale != 0 || s.DegradedReplicas != 0 {
			t.Fatalf("slot %d: live %d stale %d degraded %d", s.Slot, s.Live, s.Stale, s.DegradedReplicas)
		}
	}
	reconcile(t, f, rep, float64(cfg.Slots)*cfg.Sys.Slot())

	// Arrival synthesis does not depend on the fleet's size: the fleet
	// faced exactly the traffic a fleet of one would have.
	one, src2 := harness(t, testSimConfig(cfg.Slots), core.NewOptimized(), nil)
	single, err := Run(one, src2, Config{Seed: 1, Slots: cfg.Slots})
	if err != nil {
		t.Fatal(err)
	}
	so, _, _ := single.Totals()
	if offered != so {
		t.Fatalf("fleet faced %d requests, single gateway %d — synthesis diverged", offered, so)
	}
}

// TestFleetReplicaKillStorm: a seeded storm of replica kills (plus a
// partition) sheds, never errors — and every surviving replica's own
// counters reconcile exactly with what the balancer fired at it.
func TestFleetReplicaKillStorm(t *testing.T) {
	cfg := testSimConfig(6)
	storm, err := fault.Storm(fault.StormConfig{
		Seed:    9,
		Slots:   cfg.Slots,
		Centers: cfg.Sys.L(), FrontEnds: cfg.Sys.S(),
		Replicas:     4,
		ReplicaKills: 2, Partitions: 1, ClusterFaultSlots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(storm.Events) != 3 {
		t.Fatalf("storm generated %d events, want 3", len(storm.Events))
	}
	reg := obs.NewRegistry()
	scope := obs.NewScope(reg, nil)
	f, src := fleetHarness(t, cfg, 4, storm, scope)
	rep, err := Run(f, src, Config{Seed: 5, Slots: cfg.Slots})
	if err != nil {
		t.Fatalf("the fleet went down under the storm: %v", err)
	}
	if len(rep.Slots) != cfg.Slots {
		t.Fatalf("replayed %d of %d slots", len(rep.Slots), cfg.Slots)
	}
	if rep.Invalid() != 0 {
		t.Fatalf("%d requests answered invalid; a fleet under faults sheds, it never errors", rep.Invalid())
	}
	minLive, lastEpoch := rep.Replicas, uint64(0)
	for i := range rep.Slots {
		s := &rep.Slots[i]
		if s.Live < minLive {
			minLive = s.Live
		}
		if s.Epoch <= lastEpoch {
			t.Fatalf("slot %d published epoch %d after %d — epochs must advance", s.Slot, s.Epoch, lastEpoch)
		}
		lastEpoch = s.Epoch
	}
	if minLive == rep.Replicas {
		t.Fatal("the storm killed nothing — the test is vacuous")
	}
	reconcile(t, f, rep, float64(cfg.Slots)*cfg.Sys.Slot())
}

// TestFleetPublisherOutageServesStale: with the control plane dead for a
// slot, every replica keeps serving its last epoch — no errors, no shed
// on the clean scenario (the traffic did not change, so the stale plan
// is still right) — and the fleet reconverges the next slot.
func TestFleetPublisherOutageServesStale(t *testing.T) {
	cfg := testSimConfig(4)
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.PublisherOutage, From: 2, To: 2},
	}}
	f, src := fleetHarness(t, cfg, 2, sch, nil)
	rep, err := Run(f, src, Config{Seed: 1, Slots: cfg.Slots})
	if err != nil {
		t.Fatal(err)
	}
	offered, _, shed := rep.Totals()
	if offered == 0 {
		t.Fatal("no requests offered")
	}
	if shed != 0 || rep.Invalid() != 0 {
		t.Fatalf("outage slot shed %d / errored %d on constant traffic", shed, rep.Invalid())
	}
	out := &rep.Slots[2]
	if out.Epoch != 0 {
		t.Fatalf("outage slot recorded epoch %d, want 0 (nothing published)", out.Epoch)
	}
	if out.Live != 2 || out.Stale != 2 {
		t.Fatalf("outage slot: live %d stale %d, want every live replica serving stale", out.Live, out.Stale)
	}
	if out.DegradedReplicas != 0 {
		t.Fatalf("one stale slot is inside the TTL, but %d replicas degraded", out.DegradedReplicas)
	}
	if out.Offered == 0 {
		t.Fatal("the fleet served nothing during the outage")
	}
	// Reconvergence within one slot: the next publish catches everyone up.
	next := &rep.Slots[3]
	if next.Epoch == 0 || next.Stale != 0 {
		t.Fatalf("slot after the outage: epoch %d stale %d, want a fresh epoch fleet-wide", next.Epoch, next.Stale)
	}
	reconcile(t, f, rep, float64(cfg.Slots)*cfg.Sys.Slot())
}

// TestFleetDeterministicReplay: the same scenario, seed and fault
// schedule reproduce the byte-identical fleet report.
func TestFleetDeterministicReplay(t *testing.T) {
	run := func() []byte {
		cfg := testSimConfig(3)
		sch := &fault.Schedule{Events: []fault.Event{
			{Kind: fault.ReplicaKill, Replica: 1, From: 1, To: 1},
		}}
		f, src := fleetHarness(t, cfg, 3, sch, nil)
		rep, err := Run(f, src, Config{Seed: 7, Slots: cfg.Slots})
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
		t.Fatalf("same seed, different fleet reports:\n%s\n%s", a, b)
	}
}

func TestRunFleetValidation(t *testing.T) {
	cfg := testSimConfig(1)
	f, src := fleetHarness(t, cfg, 2, nil, nil)
	if _, err := Run(nil, src, Config{Slots: 1}); err == nil {
		t.Fatal("nil fleet accepted")
	}
	if _, err := Run(f, src, Config{Slots: 0}); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := Run(f, src, Config{Slots: 1, Closed: true}); err == nil {
		t.Fatal("closed-loop fleet replay accepted")
	}
}
