package loadgen

import (
	"runtime"
	"testing"

	"profitlb/internal/control"
	"profitlb/internal/dispatch"
	"profitlb/internal/fault"
	"profitlb/internal/obs"
	"profitlb/internal/race"
)

// soakSlots is the soak's length: long enough to measure the heap well
// past its slot-50 reading, short enough to run in a few seconds.
const soakSlots = 200

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
// run and a seeded storm of replica kills, partitions and publisher
// outages. After every slot and around every control tick it audits that
// no replica's served (epoch, sub) ever goes back or passes the
// publisher's current stamp, that no request is answered Invalid, and
// that each replica's gateway Stats reconcile exactly with the tallies
// the generator fired at it. At the end the post-GC live heap must sit
// within soakHeapSlack of its slot-50 reading.
func TestFleetSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped under -short")
	}
	cfg := testSimConfig(soakSlots)
	// Slot 0 stays clean so every replica holds a table before the storm.
	storm, err := fault.Storm(fault.StormConfig{
		Seed: 21, Start: 1, Slots: soakSlots - 1,
		Centers: cfg.Sys.L(), FrontEnds: cfg.Sys.S(),
		Replicas:     4,
		ReplicaKills: 12, Partitions: 12, PublisherOutages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	storm.Events = append(storm.Events, flashSchedule(soakSlots, 2).Events...)
	cfg.Faults = storm
	f, src := fleetHarness(t, cfg, 4, storm, obs.NewScope(obs.NewRegistry(), nil))
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
	var actuations, outages, stale int
	live := map[int]bool{}
	for abs := 0; abs < soakSlots; abs++ {
		res, err := rp.slot(abs, float64(abs)*cfg.Sys.Slot(), per)
		if err != nil {
			t.Fatalf("slot %d: %v", abs, err)
		}
		if res.Invalid != 0 {
			t.Fatalf("slot %d: %d requests answered Invalid", abs, res.Invalid)
		}
		audit("after slot")
		actuations += res.Actuations
		live[res.Live] = true
		stale += res.Stale
		if res.Epoch == 0 {
			outages++
		}
		if abs == 50 {
			heap50 = liveHeap()
		}
	}
	if actuations == 0 || len(live) == 1 || outages == 0 || stale == 0 {
		t.Fatalf("vacuous soak: %d actuations, live counts %v, %d outage slots, %d stale replica-slots",
			actuations, live, outages, stale)
	}
	// The race detector's instrumentation moves the heap; the audits above
	// still run under it.
	end := liveHeap()
	t.Logf("%d actuations, %d outage slots, %d stale replica-slots; live heap %d B at slot 50, %d B at slot %d",
		actuations, outages, stale, heap50, end, soakSlots)
	if !race.Enabled && end > heap50+soakHeapSlack {
		t.Fatalf("live heap grew from %d B at slot 50 to %d B at slot %d (slack %d B)", heap50, end, soakSlots, soakHeapSlack)
	}
}

// liveHeap returns the heap still in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
