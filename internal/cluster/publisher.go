package cluster

import (
	"slices"
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

	// memo is the publisher's decode of Table, shared by every reader in
	// the process (nil on a publication that came over HTTP or was built
	// by hand).
	memo *decodeMemo
}

// memoized is a publication and its memo, which the publisher allocates
// together.
type memoized struct {
	pub  Publication
	memo decodeMemo
}

// decodeMemo is one wire table's decode, made at most once, on first use,
// and the shares of the decode the publication's members install, cut
// together on the first install (see share).
type decodeMemo struct {
	once  sync.Once
	wire  *dispatch.TableWire
	table *dispatch.Table
	err   error

	shareOnce sync.Once
	shares    []dispatch.Table
	shareCfg  dispatch.Config
}

// fromWire is the decode a publication's readers share; the tests count
// its calls through it.
var fromWire = dispatch.FromWire

// Decoded returns the publication's routing table, decoded from its wire
// form. A publication the publisher made decodes once, on its first use,
// for every replica and reader in the process: the memo is keyed on the
// wire table it decodes, so a copy carrying another Table decodes its own,
// as does a publication decoded from HTTP. The table is shared: read-only.
func (pub *Publication) Decoded() (*dispatch.Table, error) {
	if m := pub.memo; m != nil && m.wire == pub.Table {
		m.once.Do(func() { m.table, m.err = fromWire(m.wire) })
		return m.table, m.err
	}
	return fromWire(pub.Table)
}

// share returns member idx's share of full, the publication's Decoded
// table, spread over its n members under cfg (dispatch.Table.Subdivide).
// A publication the publisher made cuts every member's share at once, on
// the first request, from one set of slabs (dispatch.Table.Shares), and
// hands each member its own; a request the memo cannot answer — another
// table or bucket setting — subdivides alone. Shares are read-only like
// the decode.
func (pub *Publication) share(full *dispatch.Table, idx, n int, cfg dispatch.Config) (*dispatch.Table, error) {
	m := pub.memo
	if n == 1 || m == nil || m.wire != pub.Table || n != len(pub.Members) {
		return full.Subdivide(idx, n, cfg)
	}
	m.shareOnce.Do(func() {
		m.shares, _ = full.Shares(n, cfg) // errs only on an empty fleet
		m.shareCfg = cfg
	})
	if !m.shareCfg.SameShares(cfg) {
		return full.Subdivide(idx, n, cfg)
	}
	return &m.shares[idx], nil
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

	mu  sync.Mutex
	cur *Publication // last published epoch (nil before the first)
	// order is the live members in join order — the subdivision order —
	// which publications share: a membership change replaces it, never
	// edits it.
	order  []string
	health map[string]*member
	// notify is closed and remade by the first publish after a long-poll
	// took it (waited).
	notify  chan struct{}
	waited  bool
	changed bool // membership changed since the last publish
	// planning is up while PublishSlot has the driver plan a slot, whose
	// epoch is minted already: Respread waits for that publish.
	planning bool
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

// Beat records a heartbeat from the replica. An unknown ID joins the
// fleet (first contact and recovery after eviction look identical —
// that is what makes rejoin free); the join takes effect at the next
// publish, when the membership change forces a re-spread epoch.
func (p *Publisher) Beat(id string, slot int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == "" {
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
		p.order = append(p.order[:len(p.order):len(p.order)], id)
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
		if i := slices.Index(p.order, id); i >= 0 {
			p.order = slices.Concat(p.order[:i], p.order[i+1:])
		}
		p.changed = true
		p.emitMembership("evict", id, slot)
	}
	return evicted
}

// PublishSlot plans slot abs through the driver and publishes the result
// under its freshly minted epoch. Failures inside planning have already
// degraded to an all-shed table (the driver's contract), so the only
// errors are wiring mistakes.
func (p *Publisher) PublishSlot(abs int) (*Publication, error) {
	// The driver mints the slot's epoch before it plans; a re-spread in
	// the meantime would mint past it and fence the slot's table out.
	p.mu.Lock()
	p.planning = true
	p.mu.Unlock()
	t, err := p.drv.PlanTable(abs)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.planning = false
	if err != nil {
		return nil, err
	}
	p.changed = false
	return p.publishLocked(t.Wire(), abs, p.order), nil
}

// Respread re-publishes the current table under a fresh epoch if (and
// only if) membership changed since the last publish — the mid-slot path
// that redistributes an evicted replica's share without a new solve.
// Returns the new publication, or nil when nothing needed re-spreading or
// a slot is being planned: its publish spreads over the new membership.
func (p *Publisher) Respread(slot int) *Publication {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil || !p.changed || p.planning {
		return nil
	}
	w := *p.cur.Table // shallow copy; slices are immutable after compile
	w.Epoch = p.drv.NextEpoch()
	w.Sub = 0 // a fresh epoch restarts the sub-epoch sequence
	p.changed = false
	return p.publishLocked(&w, slot, p.order)
}

// publishLocked stores w as the current publication, spread over members
// (a membership the publisher never edits) and stamped with w's own
// (epoch, sub), with a memo that decodes w once for all its readers,
// and wakes every long-poll (caller holds mu).
func (p *Publisher) publishLocked(w *dispatch.TableWire, slot int, members []string) *Publication {
	memo := &memoized{memo: decodeMemo{wire: w}}
	memo.pub = Publication{
		Epoch:   w.Epoch,
		Sub:     w.Sub,
		Slot:    slot,
		Members: members,
		Table:   w,
		memo:    &memo.memo,
	}
	pub := &memo.pub
	p.cur = pub
	if p.waited {
		close(p.notify)
		p.notify, p.waited = make(chan struct{}), false
	}
	if p.scope.Enabled() {
		p.scope.Gauge("cluster_published_epoch").Set(float64(pub.Epoch))
		p.scope.Gauge("cluster_published_sub").Set(float64(pub.Sub))
		p.scope.Gauge("cluster_members").Set(float64(len(p.order)))
	}
	return pub
}

// PublishControl distributes an in-slot controller correction: a table
// re-scaled against the *current* epoch, carrying the next sub-epoch.
// Unlike a slot publish it never mints an epoch, never consumes the
// pending membership-change flag, and re-spreads nothing — the correction
// is pinned to the exact membership the epoch was spread over, because a
// replica's subdivision index must not move mid-epoch. The publish is
// refused (nil) when nothing was ever published, the correction targets a
// different epoch (a slot or re-spread publish won the race), or its
// sub-epoch does not advance.
func (p *Publisher) PublishControl(w *dispatch.TableWire, slot int) *Publication {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil || w == nil || w.Epoch != p.cur.Epoch || w.Cmp(p.cur.Epoch, p.cur.Sub) <= 0 {
		return nil
	}
	return p.publishLocked(w, slot, p.cur.Members)
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
// time (the HTTP layer's 204).
func (p *Publisher) Wait(after, afterSub uint64, cancel <-chan struct{}) *Publication {
	for {
		p.mu.Lock()
		// A publication's stamp is its table's (publishLocked).
		if p.cur != nil && p.cur.Table.Cmp(after, afterSub) > 0 {
			pub := p.cur
			p.mu.Unlock()
			return pub
		}
		ch := p.notify
		p.waited = true
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
