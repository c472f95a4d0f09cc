package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// The event kinds, one per planner-decision site. Every kind carries
// Slot; the other fields are per-kind (see the emitting layer's docs).
const (
	// KindSlotStart opens a slot: Slot, Planner.
	KindSlotStart = "slot-start"
	// KindSlotEnd closes a slot: Slot, Planner, Tier/TierName, Values
	// (netProfit, lostRevenue, degraded, planSeconds).
	KindSlotEnd = "slot-end"
	// KindPlanCommitted is the accounted plan: Slot, Planner,
	// Tier/TierName, Values (revenue, energyCost, transferCost,
	// netProfit, serversOn, offered, served, the planner's objective z —
	// what a replay of the slot's input reproduces — and from sim.Run the
	// level-relaxed bound z̄ on the planner's input with the committed
	// objective's gap (z̄ − z)/z̄).
	KindPlanCommitted = "plan-committed"
	// KindPlanFailed is a slot whose plan failed outright (the simulator
	// sheds it when DegradeOnFailure is set): Slot, Planner, Err.
	KindPlanFailed = "plan-failed"
	// KindEscalation is one rejected tier of a resilient chain: Slot,
	// Epoch, Planner (the tier), Tier, Reason, Err, Values (elapsedMs).
	KindEscalation = "escalation"
	// KindTierCommit is the chain tier that produced the committed plan:
	// Slot, Epoch, Planner (the chain), Tier, TierName.
	KindTierCommit = "tier-commit"
	// KindFeedTransition is a telemetry feed changing estimator tier or
	// breaker state: Slot, Feed, FeedTier, Breaker, Staleness, Reason
	// (the transport failure, if any).
	KindFeedTransition = "feed-transition"
	// KindEngine is one Plan call's plan-search engine summary: Slot,
	// Epoch, Planner, Values (lpSolves, lpSolveErrors, lpBounded, and
	// from a warm planner the lpWarm*, pivot, lpTrials, lpCuts and the
	// other counters of core.SearchStats; from every planner, for each
	// rung of the warm ladder — trial, hot, fresh, cold — the solver calls
	// that ended on it and their wall time: lpTrialCalls, lpTrialUs,
	// lpHotCalls, lpHotUs, lpFreshCalls, lpFreshUs, lpColdCalls, lpColdUs).
	KindEngine = "engine"
	// KindEpochApplied is a gateway replica applying a published plan
	// epoch: Slot, Epoch, Sub, Replica, Values (members, index).
	KindEpochApplied = "epoch-applied"
	// KindEpochFenced is a stale or duplicate plan delivery rejected by
	// the epoch fence: Slot, Epoch, Sub (the delivery's), Replica, Reason
	// ("stale"/"duplicate"/"not-member"), Values (current).
	KindEpochFenced = "epoch-fenced"
	// KindMembership is the control plane changing the replica set:
	// Slot, Epoch (the current plan's), Replica, Reason
	// ("join"/"evict"/"rejoin"), Values (members).
	KindMembership = "membership"
	// KindStaleServing is a replica crossing the staleness TTL into
	// conservative-shed serving: Slot, Epoch (the last applied), Replica,
	// Staleness, Values (factor).
	KindStaleServing = "stale-serving"
	// KindControlActuation is a sub-slot controller publishing a corrected
	// table: Slot, Epoch, Sub, Values (tick, lanesChanged, maxStep).
	KindControlActuation = "control-actuation"
	// KindControlFrozen is the controller freezing at the last safe table
	// instead of actuating: Slot, Epoch, Sub, Reason ("stale-counters"/
	// "clock"/"publish-rejected"/"rescale"), Values (tick).
	KindControlFrozen = "control-frozen"
	// KindTopology is a run's topology, written once before the first
	// slot-input that names it: Slot, Topology (its hash), Data (the
	// datacenter.System's JSON, decoded).
	KindTopology = "topology"
	// KindSlotInput is what a slot's planner was handed beside its
	// topology: Slot, Topology, Values (price.l, arrival.s.k and
	// servers.l, the servers up at center l). sim.DecodeInputs rebuilds the
	// core.Input from it.
	KindSlotInput = "slot-input"
)

// Event is one structured trace record. Unused fields stay zero and are
// omitted from the JSON encoding; Values holds the kind's numeric
// payload (maps marshal with sorted keys, so encodings are
// deterministic). Slot, Epoch, Sub and Replica join one slot's events
// across the planner, publisher, replicas and controller; the planner's
// carry the epoch its commit publishes, 0 offline.
type Event struct {
	Kind string `json:"kind"`
	Slot int    `json:"slot"`
	// Epoch is the plan epoch the event concerns and Sub its sub-slot
	// correction (0 for the slot's base table); Replica names the gateway
	// replica.
	Epoch     uint64             `json:"epoch,omitempty"`
	Sub       uint64             `json:"sub,omitempty"`
	Replica   string             `json:"replica,omitempty"`
	Planner   string             `json:"planner,omitempty"`
	Tier      int                `json:"tier,omitempty"`
	TierName  string             `json:"tierName,omitempty"`
	Reason    string             `json:"reason,omitempty"`
	Err       string             `json:"err,omitempty"`
	Feed      string             `json:"feed,omitempty"`
	FeedTier  string             `json:"feedTier,omitempty"`
	Breaker   string             `json:"breaker,omitempty"`
	Staleness int                `json:"staleness,omitempty"`
	Values    map[string]float64 `json:"values,omitempty"`
	// Topology is the hash of the topology a topology or slot-input
	// event concerns, and Data a kind's structured payload, a JSON value
	// in its decoded form (a topology event's system).
	Topology string `json:"topology,omitempty"`
	Data     any    `json:"data,omitempty"`
}

// Sink receives the event stream. Implementations must be safe for
// concurrent Emit calls — Compare lanes share one sink.
type Sink interface {
	Emit(Event)
}

// JSONL writes events as one JSON object per line. Emit is
// mutex-serialized; encoding or write errors stick and silence the
// sink (observability must never abort a run), surfaced via Err.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONL wraps a writer in a line-delimited JSON sink.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Emit implements Sink.
func (j *JSONL) Emit(ev Event) {
	if j == nil {
		return
	}
	b, err := json.Marshal(ev)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err != nil {
		j.err = err
		return
	}
	_, j.err = j.w.Write(append(b, '\n'))
}

// Err returns the first error the sink swallowed, if any.
func (j *JSONL) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Collector buffers events in memory, for tests and golden files.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of everything collected so far.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Len returns the number of collected events.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}
