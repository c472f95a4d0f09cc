package dispatch

import (
	"sync/atomic"
	"time"

	"profitlb/internal/datacenter"
	"profitlb/internal/obs"
)

// Outcome classifies one request decision.
type Outcome uint8

const (
	// Admitted: the request was routed to its lane and fit the budget.
	Admitted Outcome = iota
	// ShedUnplanned: the plan dispatches nothing for the request's
	// (type, front-end) stream — no capacity was bought for it anywhere.
	ShedUnplanned
	// ShedBudget: the request drew a lane whose token bucket was empty —
	// arrivals ran ahead of the plan's budget λ·T (+burst).
	ShedBudget
	// Invalid: the request named a type or front-end outside the
	// topology, or hit a gateway with no table installed yet.
	Invalid
)

// String names the outcome for reports and HTTP bodies.
func (o Outcome) String() string {
	switch o {
	case Admitted:
		return "admitted"
	case ShedUnplanned:
		return "shed-unplanned"
	case ShedBudget:
		return "shed-budget"
	default:
		return "invalid"
	}
}

// Decision is the gateway's answer for one request. Admitted requests
// carry the serving lane; shed requests carry Lane -1.
type Decision struct {
	Outcome Outcome
	// Lane indexes Table.Lanes for admitted requests; -1 otherwise.
	Lane int32
	// Level and Center are the admitted lane's TUF level and data center
	// (-1 when shed).
	Level, Center int32
}

// compiled is a Table plus its mutable run state. One compiled value is
// installed at a time; a hot swap replaces the whole value so bucket and
// tally state never leaks across slots.
type compiled struct {
	t *Table
	// buckets[i] guards Lanes[i].
	buckets []bucket
	// admitted[i] counts requests admitted on Lanes[i].
	admitted []atomic.Int64
	// seq[k*S+s] numbers the stream's alias draws.
	seq []atomic.Uint64
	// offered / shedUnplanned / shedBudget tally the slot.
	offered       atomic.Int64
	shedUnplanned atomic.Int64
	shedBudget    atomic.Int64
	start         float64 // virtual time the table was installed
}

// Gateway executes the current slot's routing table. Handle is safe for
// concurrent use and allocation-free; Install atomically hot-swaps the
// table (from the owning cluster.Replica's apply) without pausing the
// request path.
type Gateway struct {
	sys *datacenter.System
	cfg Config

	// cur is the installed table and its run state — also the only record
	// of the (epoch, sub) stamp the gateway serves, so one load reads a
	// slot, epoch and sub that one table carried.
	cur atomic.Pointer[compiled]

	// Totals survive swaps (the per-slot tallies reset with each table).
	totalRequests atomic.Int64
	totalAdmitted atomic.Int64
	totalShed     atomic.Int64
	swaps         atomic.Int64
	fencedStale   atomic.Int64
	fencedDup     atomic.Int64

	// Pre-resolved observability instruments; nil without a scope (all
	// methods on them are nil-safe no-ops).
	cReq, cAdmit, cShedBudget, cShedUnplanned, cInvalid *obs.Counter
	cFencedStale, cFencedDup                            *obs.Counter
	hSwap                                               *obs.Histogram
	scope                                               *obs.Scope
}

// NewGateway builds a gateway for the system. The scope may be nil; when
// set, the hot path bumps pre-resolved counters (no per-request metric
// lookups) and Install records the swap-latency histogram.
func NewGateway(sys *datacenter.System, cfg Config, scope *obs.Scope) *Gateway {
	g := &Gateway{sys: sys, cfg: cfg.WithDefaults(), scope: scope}
	if scope != nil && scope.Metrics != nil {
		g.cReq = scope.Counter("dispatch_requests_total")
		g.cAdmit = scope.Counter("dispatch_admitted_total")
		g.cShedBudget = scope.Counter("dispatch_shed_total", obs.L("reason", "budget"))
		g.cShedUnplanned = scope.Counter("dispatch_shed_total", obs.L("reason", "unplanned"))
		g.cInvalid = scope.Counter("dispatch_invalid_total")
		g.cFencedStale = scope.Counter("dispatch_fenced_total", obs.L("reason", "stale"))
		g.cFencedDup = scope.Counter("dispatch_fenced_total", obs.L("reason", "duplicate"))
		// dispatch_swap_seconds: per install, the install itself plus, for a
		// replica applying a publication, its decode + topology check +
		// subdivide — what a plan costs between arriving and serving,
		// planning excluded.
		g.hSwap = scope.Histogram("dispatch_swap_seconds", obs.ExpBuckets(1e-6, 4, 12))
	}
	return g
}

// Scope returns the gateway's observability scope (possibly nil); the
// slot engine shares it for its own counters.
func (g *Gateway) Scope() *obs.Scope { return g.scope }

// header returns the installed table's header: the zero header, stamp
// (0, 0), before the first install.
func (g *Gateway) header() Header {
	if c := g.cur.Load(); c != nil {
		return c.t.Header
	}
	return Header{}
}

// Epoch returns the installed table's plan epoch (0 before any
// epoch-stamped install).
func (g *Gateway) Epoch() uint64 { return g.header().Epoch }

// Sub returns the installed table's sub-epoch within its epoch (0 for a
// slot's committed plan; controller corrections tick it up).
func (g *Gateway) Sub() uint64 { return g.header().Sub }

// System returns the topology the gateway serves.
func (g *Gateway) System() *datacenter.System { return g.sys }

// Config returns the gateway's (defaulted) configuration.
func (g *Gateway) Config() Config { return g.cfg }

// Install hot-swaps the routing table: the new compiled state — and with
// it the table's (epoch, sub) stamp — becomes current in one atomic
// pointer store. Install does not fence (Fence, InstallIfNewer). now is
// the virtual time of the swap — the instant bucket refill starts. With a
// metrics scope, the dispatch_swap_seconds histogram observes elapsed —
// what the caller spent turning a publication into t (decode, topology
// check, subdivide) — plus Install's own time; without one nothing is
// timed. Publishing per-lane occupancy gauges for the outgoing table
// happens here, off the request path.
//
// Bucket state across the swap: a table for a *new* slot starts every
// bucket full (a fresh slot is a fresh budget, and a full bucket does not
// starve the slot's first arrivals). A table for the *same* slot — a
// mid-slot re-spread after a cluster membership change, or a staleness
// downgrade — carries each matching lane's accumulated token level,
// fractional part included, clamped to the new capacity: refilling to
// full on every re-spread would hand the fleet a free burst per swap, and
// discarding the fraction would bias admission low by up to one request
// per lane per swap.
func (g *Gateway) Install(t *Table, now float64, elapsed time.Duration) {
	var began time.Time
	if g.hSwap != nil {
		began = time.Now()
	}
	c := &compiled{
		t:        t,
		buckets:  make([]bucket, len(t.Lanes)),
		admitted: make([]atomic.Int64, len(t.Lanes)),
		seq:      make([]atomic.Uint64, t.K()*t.S()),
		start:    now,
	}
	old := g.cur.Load()
	var carry map[Lane]int
	if old != nil && old.t.Slot == t.Slot {
		carry = make(map[Lane]int, len(old.t.Lanes))
		for i := range old.t.Lanes {
			carry[laneCoord(&old.t.Lanes[i])] = i
		}
	}
	for i := range c.buckets {
		burst := t.Lanes[i].Burst
		if j, ok := carry[laneCoord(&t.Lanes[i])]; ok {
			ln := &old.t.Lanes[j]
			level := old.buckets[j].peek(now, ln.Rate, ln.Burst)
			if level > burst {
				level = burst
			}
			c.buckets[i].set(now, level)
			continue
		}
		c.buckets[i].reset(now, burst)
	}
	g.cur.Store(c)
	g.swaps.Add(1)
	if g.hSwap != nil {
		g.hSwap.Observe((elapsed + time.Since(began)).Seconds())
	}
	if g.scope.Enabled() {
		g.scope.Gauge("dispatch_current_slot").Set(float64(t.Slot))
		g.scope.Gauge("dispatch_current_epoch").Set(float64(t.Epoch))
		g.scope.Gauge("dispatch_current_sub").Set(float64(t.Sub))
		g.scope.Gauge("dispatch_lanes").Set(float64(len(t.Lanes)))
		g.scope.Gauge("dispatch_plan_objective").Set(t.Objective)
		if old != nil {
			g.publishOccupancy(old, now)
		}
	}
}

// laneCoord strips a lane to its (k, q, s, l) identity for carry
// matching across tables (the economics and rate fields are zeroed so
// re-spread shares of the same lane still match).
func laneCoord(ln *Lane) Lane {
	return Lane{K: ln.K, Q: ln.Q, S: ln.S, L: ln.L}
}

// Fence is the serving plane's one fence: it checks a delivery stamped
// (epoch, sub) against the installed table's stamp, before anything is
// decoded or built, and returns "" when the pair advances past it
// (Header.Cmp) — slot plans (sub 0) and in-slot controller corrections
// (sub > 0) alike. Otherwise it counts the delivery and returns why it is
// refused: "duplicate" for the installed stamp itself, "stale" for an
// older one. A caller that gets "" and then installs must be the
// gateway's single installer, as InstallIfNewer's callers are.
func (g *Gateway) Fence(epoch, sub uint64) string {
	switch g.header().Cmp(epoch, sub) {
	case -1:
		return ""
	case 0:
		g.fencedDup.Add(1)
		g.cFencedDup.Inc()
		return "duplicate"
	default:
		g.fencedStale.Add(1)
		g.cFencedStale.Inc()
		return "stale"
	}
}

// InstallIfNewer installs the table only if its stamp passes Fence — what
// makes distributed plan application safe against stale, duplicate and
// out-of-order deliveries. It reports whether the table was installed;
// a fenced table leaves the serving state untouched. Like Install, it is
// meant for a single installer goroutine per gateway.
func (g *Gateway) InstallIfNewer(t *Table, now float64, elapsed time.Duration) bool {
	if g.Fence(t.Epoch, t.Sub) != "" {
		return false
	}
	g.Install(t, now, elapsed)
	return true
}

// publishOccupancy exports the outgoing table's final per-lane bucket
// occupancy (tokens as a fraction of burst) as gauges, labelled by lane
// coordinates. Called on swap only — never on the request path.
func (g *Gateway) publishOccupancy(c *compiled, now float64) {
	for i := range c.t.Lanes {
		ln := &c.t.Lanes[i]
		level := c.buckets[i].peek(now, ln.Rate, ln.Burst)
		occ := 0.0
		if ln.Burst > 0 {
			occ = level / ln.Burst
		}
		g.scope.Gauge("dispatch_lane_occupancy",
			obs.L("k", itoa(ln.K)), obs.L("q", itoa(ln.Q)),
			obs.L("s", itoa(ln.S)), obs.L("l", itoa(ln.L))).Set(occ)
	}
}

// Table returns the currently installed table (nil before the first
// Install).
func (g *Gateway) Table() *Table {
	c := g.cur.Load()
	if c == nil {
		return nil
	}
	return c.t
}

// Handle decides one request of type k arriving at front-end s at
// virtual time now. It is the hot path: no allocations, no locks beyond
// the drawn lane's bucket mutex, and deterministic per (k, s) stream
// under a fixed table and seed — request i of a stream always draws the
// same lane, and the admit/shed answer depends only on the stream's
// arrival times.
func (g *Gateway) Handle(k, s int, now float64) Decision {
	g.totalRequests.Add(1)
	g.cReq.Inc()
	c := g.cur.Load()
	if c == nil || k < 0 || k >= c.t.K() || s < 0 || s >= c.t.S() {
		g.cInvalid.Inc()
		return Decision{Outcome: Invalid, Lane: -1, Level: -1, Center: -1}
	}
	c.offered.Add(1)
	e := &c.t.entries[k][s]
	seq := c.seq[k*c.t.S()+s].Add(1) - 1
	lane := e.draw(seq)
	if lane < 0 {
		c.shedUnplanned.Add(1)
		g.totalShed.Add(1)
		g.cShedUnplanned.Inc()
		return Decision{Outcome: ShedUnplanned, Lane: -1, Level: -1, Center: -1}
	}
	ln := &c.t.Lanes[lane]
	ok, _ := c.buckets[lane].take(now, ln.Rate, ln.Burst)
	if !ok {
		c.shedBudget.Add(1)
		g.totalShed.Add(1)
		g.cShedBudget.Inc()
		return Decision{Outcome: ShedBudget, Lane: -1, Level: -1, Center: -1}
	}
	c.admitted[lane].Add(1)
	g.totalAdmitted.Add(1)
	g.cAdmit.Inc()
	return Decision{Outcome: Admitted, Lane: lane, Level: int32(ln.Q), Center: int32(ln.L)}
}

// LaneCount is one lane's slot tally.
type LaneCount struct {
	Lane
	Admitted int64
	// Occupancy is the bucket's current token level as a fraction of
	// burst (1 = full, 0 = exhausted).
	Occupancy float64
}

// Stats is a point-in-time snapshot of the gateway.
type Stats struct {
	// Slot, Epoch, Sub and Degraded/Tier describe the installed table (Slot
	// -1 and stamp (0, 0) before the first install).
	Slot     int
	Epoch    uint64
	Sub      uint64
	Degraded bool
	Tier     string
	// FencedStale and FencedDup count installs rejected by the epoch
	// fence over the gateway's lifetime.
	FencedStale, FencedDup int64
	// Offered/Admitted/ShedUnplanned/ShedBudget tally the current slot.
	Offered, Admitted, ShedUnplanned, ShedBudget int64
	// TotalRequests/TotalAdmitted/TotalShed/Swaps tally the gateway's
	// lifetime across swaps.
	TotalRequests, TotalAdmitted, TotalShed, Swaps int64
	// Lanes carries the per-lane admitted counts and bucket occupancy.
	Lanes []LaneCount
}

// Stats snapshots the gateway (allocates; not for the request path). now
// refills buckets before reading occupancy so the fractions are current.
func (g *Gateway) Stats(now float64) Stats {
	st := Stats{
		TotalRequests: g.totalRequests.Load(),
		TotalAdmitted: g.totalAdmitted.Load(),
		TotalShed:     g.totalShed.Load(),
		Swaps:         g.swaps.Load(),
		FencedStale:   g.fencedStale.Load(),
		FencedDup:     g.fencedDup.Load(),
		Slot:          -1,
	}
	c := g.cur.Load()
	if c == nil {
		return st
	}
	st.Slot, st.Epoch, st.Sub = c.t.Slot, c.t.Epoch, c.t.Sub
	st.Degraded = c.t.Degraded
	st.Tier = c.t.Tier
	st.Offered = c.offered.Load()
	st.ShedUnplanned = c.shedUnplanned.Load()
	st.ShedBudget = c.shedBudget.Load()
	st.Lanes = make([]LaneCount, len(c.t.Lanes))
	for i := range c.t.Lanes {
		ln := c.t.Lanes[i]
		n := c.admitted[i].Load()
		st.Admitted += n
		level := c.buckets[i].peek(now, ln.Rate, ln.Burst)
		occ := 0.0
		if ln.Burst > 0 {
			occ = level / ln.Burst
		}
		st.Lanes[i] = LaneCount{Lane: ln, Admitted: n, Occupancy: occ}
	}
	return st
}

// StreamOffered returns the current table's per-stream draw counts,
// indexed k·S+s — the number of in-topology requests each (type,
// front-end) stream has offered since the table was installed. Because
// draw counters reset on every install, a sub-slot controller reading
// this sees exactly the traffic the current table has absorbed. Nil
// before the first Install.
func (g *Gateway) StreamOffered() []int64 {
	c := g.cur.Load()
	if c == nil {
		return nil
	}
	out := make([]int64, len(c.seq))
	for i := range c.seq {
		out[i] = int64(c.seq[i].Load())
	}
	return out
}

// itoa renders small non-negative ints without strconv allocations on
// the swap path (label values are tiny).
func itoa(n int) string {
	if n < 10 {
		return string([]byte{byte('0' + n)})
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
