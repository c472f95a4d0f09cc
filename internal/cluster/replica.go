package cluster

import (
	"fmt"
	"sync"
	"time"

	"profitlb/internal/datacenter"
	"profitlb/internal/dispatch"
	"profitlb/internal/obs"
)

// Replica is one data-plane gateway in the fleet: it owns a Gateway,
// applies publications to it through the epoch fence, and manages its
// own staleness escalation. Apply and Tick are driven by one goroutine
// (the Fleet harness or a Subscriber); Handle on the embedded gateway
// stays the lock-free concurrent hot path.
type Replica struct {
	// ID is the replica's fleet identity (ReplicaID(i) in a Fleet).
	ID string

	dcfg  dispatch.Config
	gw    *dispatch.Gateway
	scope *obs.Scope

	// mu guards the bookkeeping below: the Fleet harness is
	// single-threaded, but in join-mode serving a Subscriber goroutine
	// applies publications while admin handlers read the state. The
	// request hot path never takes it — Handle only touches the gateway.
	mu sync.Mutex
	// appliedSlot is the slot of the last publication that passed the
	// fence (its stamp is the installed table's); staleness counts from it.
	appliedSlot int
	// staleness is how many slot boundaries have passed since the
	// applied slot; degraded marks the conservative-shed downgrade.
	staleness int
	degraded  bool
	// fencedNotMember counts publications skipped because the replica
	// was not in their membership (evicted but still pulling).
	fencedNotMember int64
}

// NewReplica builds a fleet replica with its own gateway over the
// topology. The scope may be nil or shared fleet-wide: gateway counters
// then aggregate across replicas while per-replica reconciliation reads
// Gateway.Stats directly. The cluster config is not read (a replica's
// settings are constants); bench/ pins the signature (ROADMAP item 8).
func NewReplica(id string, sys *datacenter.System, dcfg dispatch.Config, _ Config, scope *obs.Scope) *Replica {
	return &Replica{
		ID:          id,
		dcfg:        dcfg.WithDefaults(),
		gw:          dispatch.NewGateway(sys, dcfg, scope),
		scope:       scope,
		appliedSlot: -1,
	}
}

// Gateway returns the replica's serving gateway.
func (r *Replica) Gateway() *dispatch.Gateway { return r.gw }

// Ready reports whether the replica has applied its first plan epoch —
// the /readyz condition: before this it can only answer Invalid.
func (r *Replica) Ready() bool { return r.gw.Table() != nil }

// Epoch returns the last applied plan epoch: the serving table's.
func (r *Replica) Epoch() uint64 { return r.gw.Epoch() }

// Sub returns the last applied sub-epoch within the applied epoch.
func (r *Replica) Sub() uint64 { return r.gw.Sub() }

// Staleness returns how many slot boundaries the replica has served
// past its applied slot (0 when fresh).
func (r *Replica) Staleness() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.staleness
}

// Degraded reports whether the replica is in conservative-shed serving.
func (r *Replica) Degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.degraded
}

// FencedNotMember returns how many publications were skipped because
// this replica was absent from their membership.
func (r *Replica) FencedNotMember() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fencedNotMember
}

// Apply runs one publication through the epoch fence and, if it
// advances, installs this replica's subdivision of it at virtual time
// now. It returns whether the publication was installed; fenced
// deliveries (stale, duplicate, not-a-member) are counted and traced
// but never disturb the serving state. Corrupt payloads, and tables cut
// for another topology, are rejected with an error before touching the
// gateway.
func (r *Replica) Apply(pub *Publication, now float64) (bool, error) {
	if pub == nil || pub.Table == nil {
		return false, fmt.Errorf("cluster: %s received an empty publication", r.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := -1
	for i, id := range pub.Members {
		if id == r.ID {
			idx = i
			break
		}
	}
	if idx < 0 {
		r.fencedNotMember++
		r.emitFenced(pub, "not-member")
		return false, nil
	}
	// Fence before the rebuild: a stale (epoch, sub-epoch) pair must not
	// cost a compile, and must not be able to fail one either. The
	// gateway counts it, so Stats and metrics agree with the trace.
	if reason := r.gw.Fence(pub.Epoch, pub.Sub); reason != "" {
		r.emitFenced(pub, reason)
		return false, nil
	}
	// The swap histogram reads decode + fit + subdivide here and Install
	// adds its own time; nothing is timed without a scope.
	var began time.Time
	if r.scope.Enabled() {
		began = time.Now()
	}
	full, err := dispatch.FromWire(pub.Table)
	if err == nil {
		err = fits(full, r.gw.System())
	}
	if err == nil && full.Cmp(pub.Epoch, pub.Sub) != 0 {
		// The table's stamp is what the gateway will serve and fence on.
		err = fmt.Errorf("table stamped (%d, %d)", full.Epoch, full.Sub)
	}
	if err != nil {
		return false, fmt.Errorf("cluster: %s rejected publication epoch %d: %w", r.ID, pub.Epoch, err)
	}
	sub, err := full.Subdivide(idx, len(pub.Members), r.dcfg)
	if err != nil {
		return false, fmt.Errorf("cluster: %s subdividing epoch %d: %w", r.ID, pub.Epoch, err)
	}
	var elapsed time.Duration
	if !began.IsZero() {
		elapsed = time.Since(began)
	}
	// mu makes this the gateway's only installer, so the fence above holds.
	r.gw.Install(sub, now, elapsed)
	r.appliedSlot = pub.Slot
	r.staleness = 0
	r.degraded = false
	if r.scope.Enabled() {
		r.scope.Gauge("cluster_replica_epoch", obs.L("replica", r.ID)).Set(float64(pub.Epoch))
		r.scope.Gauge("cluster_replica_staleness", obs.L("replica", r.ID)).Set(0)
		r.scope.Emit(obs.Event{
			Kind: obs.KindEpochApplied, Slot: pub.Slot, Epoch: pub.Epoch, Sub: pub.Sub, Replica: r.ID,
			Values: map[string]float64{
				"members": float64(len(pub.Members)),
				"index":   float64(idx),
			},
		})
	}
	return true, nil
}

// fits checks a decoded table against the topology that is to serve it —
// the half of validation FromWire cannot do. A publisher running another
// topology file sends tables that are sound in themselves; installed, their
// center and level indices would be looked up in this replica's system.
func fits(t *dispatch.Table, sys *datacenter.System) error {
	if t.K() != sys.K() || t.S() != sys.S() {
		return fmt.Errorf("table shaped %d×%d streams, topology has %d×%d", t.K(), t.S(), sys.K(), sys.S())
	}
	if len(t.ServersOn) != sys.L() {
		return fmt.Errorf("table lists %d centers' servers, topology has %d", len(t.ServersOn), sys.L())
	}
	for i, ln := range t.Lanes {
		if ln.L < 0 || ln.L >= sys.L() {
			return fmt.Errorf("lane %d routes to center %d of %d", i, ln.L, sys.L())
		}
		if levels := sys.Classes[ln.K].TUF.NumLevels(); ln.Q < 0 || ln.Q >= levels {
			return fmt.Errorf("lane %d serves type %d at level %d of %d", i, ln.K, ln.Q, levels)
		}
	}
	return nil
}

// Tick closes the replica's view of a slot boundary: if no epoch for
// slot (or later) has been applied, staleness grows and the stale plan
// is re-armed for the new slot — same table, same epoch, re-stamped to
// the current slot so the token buckets reset to a fresh slot budget (a
// slot boundary renews the budget even when the plan could not be
// renewed; carrying a depleted bucket into the new slot would shed
// traffic the stale plan still pays for). Crossing the TTL downgrades
// the replica to conservative-shed serving instead — the last good plan
// rescaled to staleShare of its budget. A replica that has never
// applied a plan has nothing to re-arm and stays not-ready.
func (r *Replica) Tick(slot int, now float64) {
	if !r.Ready() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.appliedSlot >= slot {
		r.staleness = 0
		return
	}
	r.staleness = slot - r.appliedSlot
	if r.scope.Enabled() {
		r.scope.Gauge("cluster_replica_staleness", obs.L("replica", r.ID)).Set(float64(r.staleness))
	}
	cur := r.gw.Table()
	if r.staleness < staleSlots || r.degraded {
		renewed := *cur
		renewed.Slot = slot // new slot: buckets reset to a full budget
		r.gw.Install(&renewed, now, 0)
		return
	}
	scaled := cur.Scale(staleShare, "stale", r.dcfg)
	scaled.Slot = slot // the downgrade lands on a boundary: fresh (scaled) budget
	r.gw.Install(scaled, now, 0)
	r.degraded = true
	if r.scope.Enabled() {
		r.scope.Counter("cluster_stale_downgrades_total").Inc()
		r.scope.Emit(obs.Event{
			Kind: obs.KindStaleServing, Slot: slot, Epoch: cur.Epoch, Replica: r.ID, Staleness: r.staleness,
			Values: map[string]float64{"factor": staleShare},
		})
	}
}

// emitFenced traces one fenced delivery.
func (r *Replica) emitFenced(pub *Publication, reason string) {
	if !r.scope.Enabled() {
		return
	}
	r.scope.Emit(obs.Event{
		Kind: obs.KindEpochFenced, Slot: pub.Slot, Epoch: pub.Epoch, Sub: pub.Sub, Replica: r.ID, Reason: reason,
		Values: map[string]float64{"current": float64(r.gw.Epoch())},
	})
}
