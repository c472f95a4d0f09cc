package loadgen

import (
	"errors"
	"fmt"
	"math/rand"

	"profitlb/internal/cluster"
	"profitlb/internal/control"
	"profitlb/internal/dispatch"
	"profitlb/internal/sim"
)

// ReplicaStat is one replica's lifetime tally as the load generator saw
// it — the ground truth its gateway counters must reconcile against
// exactly (requests the generator never fired cannot appear in a
// gateway, and every fired request must be accounted admitted or shed).
type ReplicaStat struct {
	ID string
	Counts
}

// FleetSlotResult is one slot's replay accounting across the fleet: the
// tallies aggregate every replica's answers, and the plan fields mirror
// the published fleet-wide table (zero during a publisher outage).
type FleetSlotResult struct {
	SlotTally
	// Epoch is the slot's published epoch (0 during a publisher outage).
	Epoch uint64
	// Live is how many replicas served the slot; Stale counts live
	// replicas serving a table older than the slot; DegradedReplicas
	// counts live replicas in conservative-shed (stale-TTL) serving.
	Live, Stale, DegradedReplicas int
}

// FleetReport is a whole fleet replay.
type FleetReport struct {
	Planner  string
	Replicas int
	Slots    []FleetSlotResult
	// PerReplica carries each replica's lifetime generator-side tallies
	// in fleet order (killed replicas simply stop accruing).
	PerReplica []ReplicaStat
}

func (r *FleetReport) tally(i int) *SlotTally { return &r.Slots[i].SlotTally }

// Totals sums the per-slot tallies.
func (r *FleetReport) Totals() (offered, admitted, shed int64) {
	return totals(len(r.Slots), r.tally)
}

// Invalid sums the fleet's invalid answers (must be zero: a fleet under
// faults sheds, it never errors).
func (r *FleetReport) Invalid() int64 {
	var n int64
	for i := range r.Slots {
		n += r.Slots[i].Invalid
	}
	return n
}

// MaxLaneError returns the worst fleet-aggregate per-lane relative rate
// error over lanes with at least minPlanned budgeted requests, across
// slots that had a fresh publication.
func (r *FleetReport) MaxLaneError(minPlanned float64) float64 {
	return worstLane(len(r.Slots), r.tally, minPlanned, plannedErr)
}

// MaxDemandError returns the worst fleet-aggregate per-lane
// |admitted − demand|/demand over lanes with at least minPlanned
// realized demand, across slots that had a fresh publication.
func (r *FleetReport) MaxDemandError(minPlanned float64) float64 {
	return worstLane(len(r.Slots), r.tally, minPlanned, demandErr)
}

// Actuations sums the controller's published corrections.
func (r *FleetReport) Actuations() int { return actuations(len(r.Slots), r.tally) }

// RunFleet replays cfg.Slots slots against a replicated gateway fleet.
// Arrival synthesis is identical to Run — same seeds, same per-stream
// processes — so a fleet replay faces the exact traffic a single-gateway
// replay of the same configuration does; each arrival is then sprayed at
// one live replica by an independent seeded draw (a front-end balancer
// that knows liveness but not plans). Slot boundaries drive the fleet's
// control plane first (heartbeats, sweep, publish, delivery, staleness
// ticks), observing any cluster faults in the fleet's schedule.
func RunFleet(f *cluster.Fleet, src *sim.InputSource, cfg Config) (*FleetReport, error) {
	if f == nil || len(f.Replicas) == 0 || src == nil {
		return nil, errors.New("loadgen: need a fleet with replicas and an input source")
	}
	if cfg.Closed {
		return nil, errors.New("loadgen: closed-loop fleet replay is not supported (feedback would need per-replica populations)")
	}
	plant := &control.FleetPlant{Pub: f.Pub, Replicas: f.Replicas}
	rp, err := newReplayer(cfg, f.Replicas[0].Gateway(), src, plant)
	if err != nil {
		return nil, err
	}
	T, S, K := rp.sys.Slot(), rp.sys.S(), rp.sys.K()
	rep := &FleetReport{Replicas: len(f.Replicas)}
	rep.PerReplica = make([]ReplicaStat, len(f.Replicas))
	for i, r := range f.Replicas {
		rep.PerReplica[i].ID = r.ID
	}
	for i := 0; i < cfg.Slots; i++ {
		abs := cfg.StartSlot + i
		start := float64(i) * T
		pub, err := f.BeginSlot(abs, start)
		if err != nil {
			return rep, err
		}
		// The balancer sprays at replicas that are alive AND ready — the
		// /readyz condition. A replica partitioned away before it ever
		// applied an epoch has no table; firing at it would turn a cluster
		// fault into Invalid answers instead of the fleet's shed-only
		// degradation.
		var live []int
		liveSet := make([]bool, len(f.Replicas))
		for _, ri := range f.Live(abs) {
			if f.Replicas[ri].Ready() {
				live = append(live, ri)
				liveSet[ri] = true
			}
		}
		if len(live) == 0 {
			return rep, fmt.Errorf("loadgen: slot %d has no live ready replicas", abs)
		}
		res := FleetSlotResult{Live: len(live)}
		// A publisher outage publishes nothing: the table stays nil.
		var table *dispatch.Table
		if pub != nil {
			res.Epoch = pub.Epoch
			if table, err = dispatch.FromWire(pub.Table); err != nil {
				return rep, err
			}
		}
		for _, ri := range live {
			r := f.Replicas[ri]
			if r.Staleness() > 0 {
				res.Stale++
			}
			if r.Degraded() {
				res.DegradedReplicas++
			}
		}
		plant.Slot = abs
		plant.Serving = func(i int) bool { return liveSet[i] }
		plant.Reachable = func(i int) bool { return f.Reachable(i, abs) }
		// Each stream's spray is seeded independently of its arrivals, so
		// target choice never perturbs arrival times, and drawn in the
		// stream's own arrival order, so a controlled (merged) replay
		// sprays exactly as a stream-by-stream one.
		sprays := make([]*rand.Rand, S*K)
		res.SlotTally, err = rp.slot(abs, start, table, func(k, s int, now float64) dispatch.Decision {
			spray := sprays[s*K+k]
			if spray == nil {
				spray = rand.New(rand.NewSource(streamSeed(cfg.Seed^0x5eed, abs, s, k)))
				sprays[s*K+k] = spray
			}
			ri := live[spray.Intn(len(live))]
			dec := f.Replicas[ri].Gateway().Handle(k, s, now)
			rep.PerReplica[ri].add(dec.Outcome)
			return dec
		})
		if err != nil {
			return rep, err
		}
		rep.Slots = append(rep.Slots, res)
	}
	return rep, nil
}
