package cluster

import (
	"errors"
	"sync"

	"profitlb/internal/dispatch"
	"profitlb/internal/obs"
)

// Publication is one epoch's complete distribution unit: the fleet-wide
// routing table in wire form plus the membership it was spread over.
// Replicas locate themselves in Members to pick their subdivision index;
// the pairing is atomic — a table is never delivered with a membership
// other than the one its epoch was published under.
type Publication struct {
	Epoch uint64 `json:"epoch"`
	// Sub is the sub-epoch sequence within Epoch: 0 for the slot's
	// committed plan or a membership re-spread, ticking up for in-slot
	// controller corrections published against the epoch.
	Sub     uint64              `json:"sub,omitempty"`
	Slot    int                 `json:"slot"`
	Members []string            `json:"members"`
	Table   *dispatch.TableWire `json:"table"`
}

// member is the control plane's health record for one replica.
type member struct {
	beaten bool // heartbeat seen since the last sweep
	misses int  // consecutive sweeps without a heartbeat
}

// Publisher is the fleet's control plane: it owns the Driver that plans
// each slot, numbers every published table with the driver's epoch
// sequence, tracks replica membership through heartbeats, and re-spreads
// the current plan under a fresh epoch whenever membership changes. All
// methods are safe for concurrent use (the HTTP handler serves long-polls
// from many replicas while the slot loop publishes).
type Publisher struct {
	cfg   Config
	drv   *dispatch.Driver
	scope *obs.Scope

	mu      sync.Mutex
	cur     *Publication // last published epoch (nil before the first)
	order   []string     // live members in join order — the subdivision order
	health  map[string]*member
	down    bool
	notify  chan struct{} // closed and remade on every publish
	changed bool          // membership changed since the last publish
}

// NewPublisher wraps a slot-engine driver as the fleet control plane.
// The driver keeps sole ownership of planning and the epoch sequence.
func NewPublisher(cfg Config, drv *dispatch.Driver, scope *obs.Scope) *Publisher {
	return &Publisher{
		cfg:    cfg.WithDefaults(),
		drv:    drv,
		scope:  scope,
		health: make(map[string]*member),
		notify: make(chan struct{}),
	}
}

// Epoch returns the last published epoch (0 before the first publish).
func (p *Publisher) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil {
		return 0
	}
	return p.cur.Epoch
}

// Members returns the live membership in subdivision order.
func (p *Publisher) Members() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.order...)
}

// SetDown simulates a control-plane outage: while down, heartbeats are
// dropped, health rounds do not run, nothing publishes, and Wait fails
// immediately. Serving replicas notice only through staleness.
func (p *Publisher) SetDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// Down reports whether the control plane is in simulated outage.
func (p *Publisher) Down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// Beat records a heartbeat from the replica. An unknown ID joins the
// fleet (first contact and recovery after eviction look identical —
// that is what makes rejoin free); the join takes effect at the next
// publish, when the membership change forces a re-spread epoch.
func (p *Publisher) Beat(id string, slot int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down || id == "" {
		return
	}
	m, ok := p.health[id]
	if !ok {
		reason := "join"
		if p.cur != nil {
			reason = "rejoin"
		}
		m = &member{}
		p.health[id] = m
		p.order = append(p.order, id)
		p.changed = true
		p.emitMembership(reason, id, slot)
	}
	m.beaten = true
	m.misses = 0
}

// SweepHealth closes one health round: members that did not heartbeat
// since the previous sweep accrue a miss, and members reaching the
// consecutive-miss threshold are evicted. Returns the evicted IDs.
// Evictions mark the membership changed; the next publish re-spreads.
func (p *Publisher) SweepHealth(slot int) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return nil
	}
	var evicted []string
	for _, id := range p.order {
		m := p.health[id]
		if m.beaten {
			m.beaten = false
			continue
		}
		m.misses++
		if m.misses >= failThreshold {
			evicted = append(evicted, id)
		}
	}
	for _, id := range evicted {
		delete(p.health, id)
		for i, o := range p.order {
			if o == id {
				p.order = append(p.order[:i], p.order[i+1:]...)
				break
			}
		}
		p.changed = true
		p.emitMembership("evict", id, slot)
	}
	return evicted
}

// PublishSlot plans slot abs through the driver and publishes the result
// under its freshly minted epoch. Failures inside planning have already
// degraded to an all-shed table (the driver's contract), so the only
// errors are wiring mistakes or an outage.
func (p *Publisher) PublishSlot(abs int) (*Publication, error) {
	if p.Down() {
		return nil, errors.New("cluster: control plane is down")
	}
	t, err := p.drv.PlanTable(abs)
	if err != nil {
		return nil, err
	}
	return p.publish(t.Wire(), abs), nil
}

// Respread re-publishes the current table under a fresh epoch if (and
// only if) membership changed since the last publish — the mid-slot path
// that redistributes an evicted replica's share without a new solve.
// Returns the new publication, or nil when nothing needed re-spreading.
func (p *Publisher) Respread(slot int) *Publication {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down || p.cur == nil || !p.changed {
		return nil
	}
	w := *p.cur.Table // shallow copy; slices are immutable after compile
	w.Epoch = p.drv.NextEpoch()
	w.Sub = 0 // a fresh epoch restarts the sub-epoch sequence
	return p.publishLocked(&w, slot)
}

// publish stamps and stores a new publication, waking every long-poll.
func (p *Publisher) publish(w *dispatch.TableWire, slot int) *Publication {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.publishLocked(w, slot)
}

func (p *Publisher) publishLocked(w *dispatch.TableWire, slot int) *Publication {
	pub := &Publication{
		Epoch:   w.Epoch,
		Sub:     w.Sub,
		Slot:    slot,
		Members: append([]string(nil), p.order...),
		Table:   w,
	}
	p.cur = pub
	p.changed = false
	close(p.notify)
	p.notify = make(chan struct{})
	if p.scope.Enabled() {
		p.scope.Gauge("cluster_published_epoch").Set(float64(pub.Epoch))
		p.scope.Gauge("cluster_published_sub").Set(float64(pub.Sub))
		p.scope.Gauge("cluster_members").Set(float64(len(pub.Members)))
	}
	return pub
}

// PublishControl distributes an in-slot controller correction: a table
// re-scaled against the *current* epoch, carrying the next sub-epoch.
// Unlike a slot publish it never mints an epoch, never consumes the
// pending membership-change flag, and re-spreads nothing — the correction
// is pinned to the exact membership the epoch was spread over, because a
// replica's subdivision index must not move mid-epoch. The publish is
// refused (nil) when the control plane is down, nothing was ever
// published, the correction targets a different epoch (a slot or
// re-spread publish won the race), or its sub-epoch does not advance.
func (p *Publisher) PublishControl(w *dispatch.TableWire, slot int) *Publication {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down || p.cur == nil || w == nil {
		return nil
	}
	if w.Epoch != p.cur.Epoch || w.Sub <= p.cur.Sub {
		return nil
	}
	pub := &Publication{
		Epoch:   w.Epoch,
		Sub:     w.Sub,
		Slot:    slot,
		Members: append([]string(nil), p.cur.Members...),
		Table:   w,
	}
	p.cur = pub
	close(p.notify)
	p.notify = make(chan struct{})
	if p.scope.Enabled() {
		p.scope.Gauge("cluster_published_sub").Set(float64(pub.Sub))
	}
	return pub
}

// Current returns the last publication (nil before the first).
func (p *Publisher) Current() *Publication {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

// Wait long-polls for a publication whose (epoch, sub-epoch) pair is
// lexicographically newer than (after, afterSub): it returns immediately
// when one is already published, otherwise blocks until the next publish
// or until cancel closes. A nil return means nothing newer arrived in
// time (the HTTP layer's 204) or the control plane is down.
func (p *Publisher) Wait(after, afterSub uint64, cancel <-chan struct{}) *Publication {
	for {
		p.mu.Lock()
		if p.down {
			p.mu.Unlock()
			return nil
		}
		if p.cur != nil && (p.cur.Epoch > after || (p.cur.Epoch == after && p.cur.Sub > afterSub)) {
			pub := p.cur
			p.mu.Unlock()
			return pub
		}
		ch := p.notify
		p.mu.Unlock()
		select {
		case <-ch:
		case <-cancel:
			return nil
		}
	}
}

// emitMembership traces one membership transition (caller holds mu).
func (p *Publisher) emitMembership(reason, id string, slot int) {
	if !p.scope.Enabled() {
		return
	}
	p.scope.Counter("cluster_membership_total", obs.L("change", reason)).Inc()
	p.scope.Gauge("cluster_members").Set(float64(len(p.order)))
	epoch := uint64(0)
	if p.cur != nil {
		epoch = p.cur.Epoch
	}
	p.scope.Emit(obs.Event{
		Kind: obs.KindMembership, Slot: slot, Epoch: epoch, Replica: id, Reason: reason,
		Values: map[string]float64{"members": float64(len(p.order))},
	})
}
