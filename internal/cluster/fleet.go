package cluster

import (
	"errors"

	"profitlb/internal/datacenter"
	"profitlb/internal/dispatch"
	"profitlb/internal/fault"
	"profitlb/internal/obs"
)

// Fleet is the deterministic in-process harness: a Publisher and N
// Replicas driven in virtual time by one goroutine, with cluster faults
// (replica kills, partitions, publisher outages) observed from a fault
// schedule instead of real network failures. It exists so fleet
// behaviour — epoch fencing, re-spread after eviction, staleness
// escalation, outage degradation — is testable under -race with exact
// reproducibility; the HTTP transport in this package carries the same
// Publication type over real connections.
type Fleet struct {
	Pub      *Publisher
	Replicas []*Replica

	cfg   Config
	sch   *fault.Schedule
	scope *obs.Scope
	// joined tracks which replicas have ever beaten, so the first slot
	// joins everyone before the first publish.
	joined []bool
}

// NewFleet builds a publisher around the driver plus cfg.Replicas
// replicas (one when unset) sharing the scope. The schedule may be nil
// (no faults).
func NewFleet(sys *datacenter.System, dcfg dispatch.Config, cfg Config, drv *dispatch.Driver, sch *fault.Schedule, scope *obs.Scope) (*Fleet, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sch.ValidateCluster(cfg.Replicas); err != nil {
		return nil, err
	}
	f := &Fleet{
		Pub:    NewPublisher(cfg, drv, scope),
		cfg:    cfg,
		sch:    sch,
		scope:  scope,
		joined: make([]bool, cfg.Replicas),
	}
	for i := 0; i < cfg.Replicas; i++ {
		f.Replicas = append(f.Replicas, NewReplica(ReplicaID(i), sys, dcfg, cfg, scope))
	}
	return f, nil
}

// Down reports whether replica i is killed at the slot.
func (f *Fleet) Down(i, slot int) bool { return f.sch.ReplicaDown(i, slot) }

// Reachable reports whether replica i can talk to the control plane at
// the slot: alive, not partitioned, and the control plane itself up.
func (f *Fleet) Reachable(i, slot int) bool {
	return !f.sch.ReplicaDown(i, slot) && !f.sch.ReplicaPartitioned(i, slot) && !f.sch.PublisherDown(slot)
}

// Live returns the indices of replicas serving at the slot (everything
// not killed — partitioned and stale replicas still answer requests).
func (f *Fleet) Live(slot int) []int {
	var out []int
	for i := range f.Replicas {
		if !f.sch.ReplicaDown(i, slot) {
			out = append(out, i)
		}
	}
	return out
}

// BeginSlot advances the whole fleet across the slot boundary at
// virtual time now, in the order a real deployment would experience it:
// heartbeats from reachable replicas, the health sweep (evictions and
// rejoins take effect in this slot's publish), the publish itself, then
// delivery to every reachable replica and a staleness tick for every
// live one. A publisher outage skips straight to the ticks — the fleet
// serves its last epochs. Returns the slot's publication: nil during an
// outage, or beside the error when the publish itself failed (a wiring
// mistake). A replica that rejects the publication does not stop the
// boundary — the others still apply and everyone ticks — and the
// rejections come back joined beside the publication.
func (f *Fleet) BeginSlot(abs int, now float64) (*Publication, error) {
	pubDown := f.sch.PublisherDown(abs)
	var pub *Publication
	var applyErrs []error
	if !pubDown {
		for i := range f.Replicas {
			if f.Reachable(i, abs) {
				f.Pub.Beat(f.Replicas[i].ID, abs)
				f.joined[i] = true
			}
		}
		f.Pub.SweepHealth(abs)
		var err error
		pub, err = f.Pub.PublishSlot(abs)
		if err != nil {
			return nil, err
		}
		for i, r := range f.Replicas {
			if !f.Reachable(i, abs) {
				continue
			}
			if _, err := r.Apply(pub, now); err != nil {
				applyErrs = append(applyErrs, err)
			}
		}
	}
	for i, r := range f.Replicas {
		if f.sch.ReplicaDown(i, abs) {
			continue
		}
		r.Tick(abs, now)
		if f.scope.Enabled() {
			lag := float64(f.Pub.Epoch()) - float64(r.Epoch())
			f.scope.Gauge("cluster_epoch_lag", obs.L("replica", r.ID)).Set(lag)
		}
	}
	return pub, errors.Join(applyErrs...)
}

// Ready reports whether every live replica has applied a first epoch.
func (f *Fleet) Ready(slot int) bool {
	for _, i := range f.Live(slot) {
		if !f.Replicas[i].Ready() {
			return false
		}
	}
	return true
}
