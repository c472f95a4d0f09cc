package control

import (
	"profitlb/internal/cluster"
	"profitlb/internal/dispatch"
)

// FleetPlant adapts a replicated fleet — a lone gateway being a fleet of
// one: samples aggregate the in-sync replicas' counters (normalized by
// coverage, since a partitioned replica's share of demand is invisible),
// and corrections ride the publisher as sub-epoch publications applied
// through each replica's fence. The controller's base table is the
// fleet-wide (undivided) one; replicas subdivide corrections exactly as
// they do slot plans.
type FleetPlant struct {
	Pub      *cluster.Publisher
	Replicas []*cluster.Replica
	// Serving reports whether replica i currently takes traffic (nil:
	// all do); Reachable whether the control plane can deliver to it
	// (nil: all reachable). A killed replica is neither; a partitioned
	// one serves but cannot receive.
	Serving   func(i int) bool
	Reachable func(i int) bool
	// Slot stamps control publications; the slot loop updates it each
	// boundary.
	Slot int
}

// Sample implements Plant: the summed offered counters of every serving
// replica that is in sync with (epoch, sub), with Coverage the in-sync
// fraction of serving replicas. No serving replica in sync means no
// usable observation — a slot boundary or a re-spread won a race, and
// the controller freezes rather than correcting a table it no longer
// owns.
func (p *FleetPlant) Sample(epoch, sub uint64) Sample {
	serving, inSync := 0, 0
	var agg []int64
	for i, r := range p.Replicas {
		if p.Serving != nil && !p.Serving(i) {
			continue
		}
		serving++
		gw := r.Gateway()
		if t := gw.Table(); t == nil || t.Cmp(epoch, sub) != 0 {
			continue
		}
		off := gw.StreamOffered()
		if off == nil {
			continue
		}
		if agg == nil {
			agg = make([]int64, len(off))
		} else if len(off) != len(agg) {
			return Sample{}
		}
		for j := range off {
			agg[j] += off[j]
		}
		inSync++
	}
	if inSync == 0 {
		return Sample{}
	}
	return Sample{OK: true, StreamOffered: agg, Coverage: float64(inSync) / float64(serving)}
}

// Publish implements Plant: the correction goes through the publisher's
// sub-epoch guard (refused when an epoch publish won the race) and is
// applied to every reachable replica. True when at least one replica
// installed it; partitioned replicas keep their last fenced table and
// catch up — or not — through the ordinary fence.
func (p *FleetPlant) Publish(t *dispatch.Table, now float64) bool {
	pub := p.Pub.PublishControl(t.Wire(), p.Slot)
	if pub == nil {
		return false
	}
	applied := false
	for i, r := range p.Replicas {
		if p.Reachable != nil && !p.Reachable(i) {
			continue
		}
		if ok, err := r.Apply(pub, now); err == nil && ok {
			applied = true
		}
	}
	return applied
}
