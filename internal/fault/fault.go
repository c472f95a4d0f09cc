// Package fault is a deterministic fault-injection subsystem for the
// simulators: a Schedule of timed events that take data centers offline,
// degrade their fleets, spike or blackout electricity price feeds, drop or
// corrupt arrival-trace readings, and make planners time out, error or
// panic. Every event is an explicit (kind, slot range) record, so a
// schedule replays identically however many times it runs; the seeded
// Storm generator produces reproducible random schedules from a seed.
//
// The model separates what is *real* from what is *observed*:
//
//   - Capacity faults (outage, degrade) are real: the effective topology
//     the planner sees and the accounting both lose the servers.
//   - Price spikes are real market events: the planner and the accounting
//     both see the spiked price.
//   - Price blackouts are feed stalls: the planner sees the last price
//     observed before the stall, while settlement (accounting) uses the
//     true price.
//   - Trace drops and corruptions are telemetry failures: the planner
//     sees the faulted reading, while the actual arrivals are unchanged —
//     the simulator reconciles the committed plan against reality and
//     drops what no capacity was reserved for.
//   - Planner faults (timeout, error, panic) fire inside the Injector
//     planner wrapper; a resilient fallback chain is expected to absorb
//     them.
package fault

import (
	"fmt"
	"math"

	"profitlb/internal/datacenter"
	"profitlb/internal/market"
)

// Kind names one fault class.
type Kind string

// The fault kinds a Schedule can carry.
const (
	// CenterOutage takes every server of Center offline for the range.
	CenterOutage Kind = "center-outage"
	// CenterDegrade keeps only Factor (0..1) of Center's servers online.
	CenterDegrade Kind = "center-degrade"
	// PriceSpike multiplies Center's real electricity price by Factor.
	PriceSpike Kind = "price-spike"
	// PriceBlackout stalls Center's price feed: planners see the last
	// price observed before the blackout began.
	PriceBlackout Kind = "price-blackout"
	// TraceDrop zeroes FrontEnd's arrival readings as seen by planners.
	TraceDrop Kind = "trace-drop"
	// TraceCorrupt multiplies FrontEnd's arrival readings by Factor as
	// seen by planners.
	TraceCorrupt Kind = "trace-corrupt"
	// PlannerTimeout makes the wrapped planner report that it ran out of
	// its time budget (core.ErrTimeout).
	PlannerTimeout Kind = "planner-timeout"
	// PlannerError makes the wrapped planner return an error.
	PlannerError Kind = "planner-error"
	// PlannerPanic makes the wrapped planner panic.
	PlannerPanic Kind = "planner-panic"

	// The feed fault family degrades the telemetry feeds of internal/feed
	// (they are inert unless the simulation routes planner inputs through
	// feeds). Each event targets one feed, named by Event.Feed ("price" or
	// "arrival") plus the matching Center / FrontEnd index.

	// FeedDelay multiplies the feed's per-attempt fetch latency by Factor,
	// so retries blow the per-slot deadline instead of answering.
	FeedDelay Kind = "feed-delay"
	// FeedDropout makes each fetch attempt fail with probability Factor.
	FeedDropout Kind = "feed-dropout"
	// FeedNoise perturbs fetched readings multiplicatively with relative
	// standard deviation Factor. The value still arrives "fresh" — the
	// feed cannot tell it is wrong.
	FeedNoise Kind = "feed-noise"
	// FeedCorrupt makes fetched readings detectably garbage; the feed's
	// validator rejects the attempt.
	FeedCorrupt Kind = "feed-corrupt"
	// FeedLoss fails every fetch attempt for the range (a permanent loss
	// when To reaches the end of the horizon).
	FeedLoss Kind = "feed-loss"

	// The cluster fault family targets the replicated gateway fleet of
	// internal/cluster (inert outside fleet runs). Replica indices are
	// validated against the fleet size by Schedule.ValidateCluster, since
	// the replica count is a cluster-config dimension, not a topology one.

	// ReplicaKill takes gateway replica Event.Replica down for the range:
	// it serves nothing, sends no heartbeats, and pulls no plans. The
	// control plane evicts it after consecutive missed health rounds and
	// re-spreads its share; it rejoins when the range ends.
	ReplicaKill Kind = "replica-kill"
	// ReplicaPartition cuts replica Event.Replica off from the control
	// plane: it keeps serving its last applied epoch (going stale) but
	// cannot pull new plans or heartbeat.
	ReplicaPartition Kind = "replica-partition"
	// PublisherOutage takes the control plane down for the range: no new
	// epochs are published and no health rounds run; the whole fleet
	// degrades to last-known-epoch serving.
	PublisherOutage Kind = "publisher-outage"

	// The drift fault family perturbs realized in-slot traffic away from
	// the committed plan's forecast without touching what the planner
	// sees — the disturbances a sub-slot feedback controller
	// (internal/control) exists to absorb. EffectiveSystem and the
	// observed-price/arrival paths ignore them by design.

	// FlashCrowd turns front-end Event.FrontEnd's realized arrivals into a
	// mean-increasing MMPP burst: the stream's base rate holds in the calm
	// state and jumps to Factor (> 1) times base in the burst state, so
	// the front-end's realized mean exceeds the plan's forecast. Other
	// front-ends keep their planned statistics.
	FlashCrowd Kind = "flash-crowd"
	// SlowCenter sags center Event.Center's effective in-slot service
	// rate to Factor (0..1) of nominal mid-slot: work admitted beyond the
	// sagged capacity earns no revenue but still pays its energy and
	// transfer costs. The planner does not see the sag.
	SlowCenter Kind = "slow-center"
)

// Feed target names for the feed fault family (Event.Feed).
const (
	// FeedPrice targets the electricity price feed of center Event.Center.
	FeedPrice = "price"
	// FeedArrival targets the arrival-telemetry feed of front-end
	// Event.FrontEnd.
	FeedArrival = "arrival"
)

// Event is one timed fault. From and To are absolute slot indices and the
// range is inclusive on both ends.
type Event struct {
	Kind Kind `json:"kind"`
	From int  `json:"from"`
	To   int  `json:"to"`
	// Center indexes the data center for capacity and price faults.
	Center int `json:"center,omitempty"`
	// FrontEnd indexes the front-end for trace faults.
	FrontEnd int `json:"frontEnd,omitempty"`
	// Factor parameterizes the fault: surviving server fraction for
	// center-degrade, price multiplier for price-spike, reading
	// multiplier for trace-corrupt, latency multiplier for feed-delay,
	// per-attempt failure probability for feed-dropout, relative noise
	// standard deviation for feed-noise. Ignored by the other kinds.
	Factor float64 `json:"factor,omitempty"`
	// Feed names the telemetry feed a feed fault targets: "price"
	// (indexed by Center) or "arrival" (indexed by FrontEnd). Ignored by
	// the non-feed kinds.
	Feed string `json:"feed,omitempty"`
	// Replica indexes the gateway replica for cluster faults.
	Replica int `json:"replica,omitempty"`
}

// Active reports whether the event covers the slot.
func (e *Event) Active(slot int) bool { return slot >= e.From && slot <= e.To }

// String renders the event compactly, e.g. "center-outage(l=1,slots 3-5)".
func (e *Event) String() string {
	switch e.Kind {
	case CenterOutage:
		return fmt.Sprintf("%s(l=%d,slots %d-%d)", e.Kind, e.Center, e.From, e.To)
	case CenterDegrade, PriceSpike:
		return fmt.Sprintf("%s(l=%d,×%g,slots %d-%d)", e.Kind, e.Center, e.Factor, e.From, e.To)
	case PriceBlackout:
		return fmt.Sprintf("%s(l=%d,slots %d-%d)", e.Kind, e.Center, e.From, e.To)
	case TraceDrop:
		return fmt.Sprintf("%s(s=%d,slots %d-%d)", e.Kind, e.FrontEnd, e.From, e.To)
	case TraceCorrupt:
		return fmt.Sprintf("%s(s=%d,×%g,slots %d-%d)", e.Kind, e.FrontEnd, e.Factor, e.From, e.To)
	case FeedDelay, FeedDropout, FeedNoise:
		return fmt.Sprintf("%s(%s %d,%g,slots %d-%d)", e.Kind, e.Feed, e.feedIndex(), e.Factor, e.From, e.To)
	case FeedCorrupt, FeedLoss:
		return fmt.Sprintf("%s(%s %d,slots %d-%d)", e.Kind, e.Feed, e.feedIndex(), e.From, e.To)
	case ReplicaKill, ReplicaPartition:
		return fmt.Sprintf("%s(r=%d,slots %d-%d)", e.Kind, e.Replica, e.From, e.To)
	case FlashCrowd:
		return fmt.Sprintf("%s(s=%d,×%g,slots %d-%d)", e.Kind, e.FrontEnd, e.Factor, e.From, e.To)
	case SlowCenter:
		return fmt.Sprintf("%s(l=%d,×%g,slots %d-%d)", e.Kind, e.Center, e.Factor, e.From, e.To)
	default:
		return fmt.Sprintf("%s(slots %d-%d)", e.Kind, e.From, e.To)
	}
}

// feedIndex returns the targeted feed's index under the Feed naming.
func (e *Event) feedIndex() int {
	if e.Feed == FeedArrival {
		return e.FrontEnd
	}
	return e.Center
}

// family is the plane a fault kind acts on.
type family uint8

const (
	capacityFaults family = iota + 1
	priceFaults
	traceFaults
	plannerFaults
	feedFaults
	clusterFaults
	driftFaults
)

// families is the one kind → family table.
var families = map[Kind]family{
	CenterOutage: capacityFaults, CenterDegrade: capacityFaults,
	PriceSpike: priceFaults, PriceBlackout: priceFaults,
	TraceDrop: traceFaults, TraceCorrupt: traceFaults,
	PlannerTimeout: plannerFaults, PlannerError: plannerFaults, PlannerPanic: plannerFaults,
	FeedDelay: feedFaults, FeedDropout: feedFaults, FeedNoise: feedFaults, FeedCorrupt: feedFaults, FeedLoss: feedFaults,
	ReplicaKill: clusterFaults, ReplicaPartition: clusterFaults, PublisherOutage: clusterFaults,
	FlashCrowd: driftFaults, SlowCenter: driftFaults,
}

// of matches the events of one family.
func of(f family) func(*Event) bool {
	return func(e *Event) bool { return families[e.Kind] == f }
}

// validate checks one event against the topology dimensions.
func (e *Event) validate(i, centers, frontEnds int) error {
	if e.From < 0 || e.To < e.From {
		return fmt.Errorf("fault: event %d (%s) has invalid slot range [%d,%d]", i, e.Kind, e.From, e.To)
	}
	switch e.Kind {
	case CenterOutage, PriceBlackout:
		if e.Center < 0 || e.Center >= centers {
			return fmt.Errorf("fault: event %d (%s) targets center %d of %d", i, e.Kind, e.Center, centers)
		}
	case CenterDegrade:
		if e.Center < 0 || e.Center >= centers {
			return fmt.Errorf("fault: event %d (%s) targets center %d of %d", i, e.Kind, e.Center, centers)
		}
		if e.Factor < 0 || e.Factor >= 1 {
			return fmt.Errorf("fault: event %d (center-degrade) needs factor in [0,1), got %g", i, e.Factor)
		}
	case PriceSpike:
		if e.Center < 0 || e.Center >= centers {
			return fmt.Errorf("fault: event %d (%s) targets center %d of %d", i, e.Kind, e.Center, centers)
		}
		if e.Factor <= 0 {
			return fmt.Errorf("fault: event %d (price-spike) needs positive factor, got %g", i, e.Factor)
		}
	case TraceDrop:
		if e.FrontEnd < 0 || e.FrontEnd >= frontEnds {
			return fmt.Errorf("fault: event %d (%s) targets front-end %d of %d", i, e.Kind, e.FrontEnd, frontEnds)
		}
	case TraceCorrupt:
		if e.FrontEnd < 0 || e.FrontEnd >= frontEnds {
			return fmt.Errorf("fault: event %d (%s) targets front-end %d of %d", i, e.Kind, e.FrontEnd, frontEnds)
		}
		if e.Factor < 0 {
			return fmt.Errorf("fault: event %d (trace-corrupt) needs non-negative factor, got %g", i, e.Factor)
		}
	case FlashCrowd:
		if e.FrontEnd < 0 || e.FrontEnd >= frontEnds {
			return fmt.Errorf("fault: event %d (%s) targets front-end %d of %d", i, e.Kind, e.FrontEnd, frontEnds)
		}
		if e.Factor <= 1 {
			return fmt.Errorf("fault: event %d (flash-crowd) needs burst factor > 1, got %g", i, e.Factor)
		}
	case SlowCenter:
		if e.Center < 0 || e.Center >= centers {
			return fmt.Errorf("fault: event %d (%s) targets center %d of %d", i, e.Kind, e.Center, centers)
		}
		if e.Factor <= 0 || e.Factor >= 1 {
			return fmt.Errorf("fault: event %d (slow-center) needs factor in (0,1), got %g", i, e.Factor)
		}
	case PlannerTimeout, PlannerError, PlannerPanic:
		// No target: planner faults hit whatever planner is wrapped.
	case PublisherOutage:
		// No target: the fleet has one control plane.
	case ReplicaKill, ReplicaPartition:
		// The upper bound is the fleet size, a cluster-config dimension
		// checked by ValidateCluster; only sanity-check the index here.
		if e.Replica < 0 {
			return fmt.Errorf("fault: event %d (%s) targets negative replica %d", i, e.Kind, e.Replica)
		}
	case FeedDelay, FeedDropout, FeedNoise, FeedCorrupt, FeedLoss:
		switch e.Feed {
		case FeedPrice:
			if e.Center < 0 || e.Center >= centers {
				return fmt.Errorf("fault: event %d (%s) targets price feed %d of %d", i, e.Kind, e.Center, centers)
			}
		case FeedArrival:
			if e.FrontEnd < 0 || e.FrontEnd >= frontEnds {
				return fmt.Errorf("fault: event %d (%s) targets arrival feed %d of %d", i, e.Kind, e.FrontEnd, frontEnds)
			}
		default:
			return fmt.Errorf("fault: event %d (%s) needs feed %q or %q, got %q", i, e.Kind, FeedPrice, FeedArrival, e.Feed)
		}
		switch e.Kind {
		case FeedDelay:
			if e.Factor <= 1 {
				return fmt.Errorf("fault: event %d (feed-delay) needs latency factor > 1, got %g", i, e.Factor)
			}
		case FeedDropout:
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("fault: event %d (feed-dropout) needs probability in (0,1], got %g", i, e.Factor)
			}
		case FeedNoise:
			if e.Factor <= 0 {
				return fmt.Errorf("fault: event %d (feed-noise) needs positive sigma, got %g", i, e.Factor)
			}
		}
	default:
		return fmt.Errorf("fault: event %d has unknown kind %q", i, e.Kind)
	}
	return nil
}

// Schedule is a replayable set of fault events. The zero value and nil are
// both valid empty schedules; every accessor is nil-safe.
type Schedule struct {
	Events []Event `json:"events"`
}

// Empty reports whether the schedule carries no events.
func (sch *Schedule) Empty() bool { return sch == nil || len(sch.Events) == 0 }

// Validate checks every event against the topology dimensions.
func (sch *Schedule) Validate(centers, frontEnds int) error {
	if sch == nil {
		return nil
	}
	for i := range sch.Events {
		if err := sch.Events[i].validate(i, centers, frontEnds); err != nil {
			return err
		}
	}
	return nil
}

// anySlot makes a walk cover the whole schedule instead of one slot.
const anySlot = math.MinInt

// walk visits, in schedule order, the events covering slot (every event
// for anySlot) until visit returns false — the one loop every accessor
// below runs on. A nil schedule has no events.
func (sch *Schedule) walk(slot int, visit func(e *Event) bool) {
	if sch == nil {
		return
	}
	for i := range sch.Events {
		if e := &sch.Events[i]; (slot == anySlot || e.Active(slot)) && !visit(e) {
			return
		}
	}
}

// find returns the first event covering slot (anySlot: any event) that
// match accepts, or nil.
func (sch *Schedule) find(slot int, match func(e *Event) bool) *Event {
	var found *Event
	sch.walk(slot, func(e *Event) bool {
		if match(e) {
			found = e
		}
		return found == nil
	})
	return found
}

// ActiveAt returns the events covering the slot, in schedule order.
func (sch *Schedule) ActiveAt(slot int) []Event {
	var out []Event
	sch.walk(slot, func(e *Event) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// ActiveNames renders the slot's active events for reports.
func (sch *Schedule) ActiveNames(slot int) []string {
	events := sch.ActiveAt(slot)
	if len(events) == 0 {
		return nil
	}
	out := make([]string, len(events))
	for i := range events {
		out[i] = events[i].String()
	}
	return out
}

// EffectiveSystem applies the slot's capacity faults (outages, degrades)
// to the topology and returns it together with a flag saying whether any
// fired. When none are active the original system is returned unchanged.
// A degraded center keeps ceil-free floor(Servers×Factor) servers; an
// outage leaves zero (the topology stays valid — planners route around
// offline centers).
func (sch *Schedule) EffectiveSystem(sys *datacenter.System, slot int) (*datacenter.System, bool) {
	if sch.Empty() {
		return sys, false
	}
	var eff *datacenter.System
	sch.walk(slot, func(e *Event) bool {
		var survivors int
		switch e.Kind {
		case CenterOutage:
			survivors = 0
		case CenterDegrade:
			survivors = int(float64(sys.Centers[e.Center].Servers) * e.Factor)
		default:
			return true
		}
		if eff == nil {
			eff = sys.Clone()
		}
		if survivors < eff.Centers[e.Center].Servers {
			eff.Centers[e.Center].Servers = survivors
		}
		return true
	})
	if eff == nil {
		return sys, false
	}
	return eff, true
}

// TruePrice returns the price actually settled for center l during the
// slot: the feed price with any active spikes applied (spikes are real
// market events; blackouts only hide them from planners).
func (sch *Schedule) TruePrice(tr *market.PriceTrace, l, slot int) float64 {
	p := tr.At(slot)
	sch.walk(slot, func(e *Event) bool {
		if e.Kind == PriceSpike && e.Center == l {
			p *= e.Factor
		}
		return true
	})
	return p
}

// ObservedPrice returns the price the planner sees for center l during
// the slot. Under an active blackout the feed is stalled: the planner
// holds the last true price from before the stall began (walking past
// adjacent blackouts); a blackout reaching back to slot 0 pins the feed
// to the raw slot-0 price.
func (sch *Schedule) ObservedPrice(tr *market.PriceTrace, l, slot int) float64 {
	blackout := func(t int) bool {
		return sch.find(t, func(e *Event) bool { return e.Kind == PriceBlackout && e.Center == l }) != nil
	}
	t := slot
	for t > 0 && blackout(t) {
		t--
	}
	if t == 0 && blackout(0) {
		return tr.At(0)
	}
	return sch.TruePrice(tr, l, t)
}

// ObservedArrival maps a true arrival-rate reading from front-end s to
// what the planner sees: zero under an active drop, scaled by the corrupt
// factor otherwise.
func (sch *Schedule) ObservedArrival(rate float64, s, slot int) float64 {
	sch.walk(slot, func(e *Event) bool {
		if e.FrontEnd == s {
			switch e.Kind {
			case TraceDrop:
				rate = 0
				return false
			case TraceCorrupt:
				rate *= e.Factor
			}
		}
		return true
	})
	return rate
}

// ArrivalsFaulted reports whether any trace fault covers the slot, i.e.
// whether the planner's view of arrivals differs from reality.
func (sch *Schedule) ArrivalsFaulted(slot int) bool {
	return sch.find(slot, of(traceFaults)) != nil
}

// FeedEffects is the combined impact of the active feed faults on one
// feed during one slot. The zero value (with LatencyFactor 1) means an
// unimpaired feed.
type FeedEffects struct {
	// Lost fails every fetch attempt (feed-loss).
	Lost bool
	// Corrupt makes every fetched reading detectably garbage (feed-corrupt).
	Corrupt bool
	// DropProb is the per-attempt failure probability (feed-dropout);
	// overlapping dropouts compound as independent failures.
	DropProb float64
	// LatencyFactor multiplies per-attempt fetch latency (feed-delay);
	// overlapping delays multiply.
	LatencyFactor float64
	// NoiseSigma is the relative standard deviation of multiplicative
	// reading noise (feed-noise); overlapping noise keeps the worst sigma.
	NoiseSigma float64
}

// FeedEffects returns the combined feed faults covering the given feed
// ("price"/"arrival" plus index) at the slot.
func (sch *Schedule) FeedEffects(feedKind string, idx, slot int) FeedEffects {
	eff := FeedEffects{LatencyFactor: 1}
	sch.walk(slot, func(e *Event) bool {
		if families[e.Kind] != feedFaults || e.Feed != feedKind || e.feedIndex() != idx {
			return true
		}
		switch e.Kind {
		case FeedLoss:
			eff.Lost = true
		case FeedCorrupt:
			eff.Corrupt = true
		case FeedDropout:
			eff.DropProb = 1 - (1-eff.DropProb)*(1-e.Factor)
		case FeedDelay:
			eff.LatencyFactor *= e.Factor
		case FeedNoise:
			if e.Factor > eff.NoiseSigma {
				eff.NoiseSigma = e.Factor
			}
		}
		return true
	})
	return eff
}

// HasPlannerFaults reports whether the schedule carries any planner
// timeout/error/panic events (i.e. whether wrapping the planner in an
// Injector changes anything).
func (sch *Schedule) HasPlannerFaults() bool {
	return sch.find(anySlot, of(plannerFaults)) != nil
}

// HasClusterFaults reports whether the schedule carries any cluster
// fault events (i.e. whether a fleet run faces kills, partitions or
// control-plane outages).
func (sch *Schedule) HasClusterFaults() bool {
	return sch.find(anySlot, of(clusterFaults)) != nil
}

// ValidateCluster bounds the cluster events' replica indices against the
// fleet size — the dimension Schedule.Validate cannot see.
func (sch *Schedule) ValidateCluster(replicas int) error {
	if sch == nil {
		return nil
	}
	for i := range sch.Events {
		e := &sch.Events[i]
		switch e.Kind {
		case ReplicaKill, ReplicaPartition:
			if e.Replica < 0 || e.Replica >= replicas {
				return fmt.Errorf("fault: event %d (%s) targets replica %d of a %d-replica fleet", i, e.Kind, e.Replica, replicas)
			}
		}
	}
	return nil
}

// ReplicaDown reports whether replica i is killed at the slot.
func (sch *Schedule) ReplicaDown(i, slot int) bool {
	return sch.find(slot, func(e *Event) bool { return e.Kind == ReplicaKill && e.Replica == i }) != nil
}

// ReplicaPartitioned reports whether replica i is cut off from the
// control plane at the slot (a killed replica is trivially unreachable
// too, but ReplicaDown takes precedence in the harness: dead replicas
// serve nothing, partitioned ones serve stale).
func (sch *Schedule) ReplicaPartitioned(i, slot int) bool {
	return sch.find(slot, func(e *Event) bool { return e.Kind == ReplicaPartition && e.Replica == i }) != nil
}

// PublisherDown reports whether the control plane is out at the slot.
func (sch *Schedule) PublisherDown(slot int) bool {
	return sch.find(slot, func(e *Event) bool { return e.Kind == PublisherOutage }) != nil
}

// FlashCrowdFactor returns the realized-arrival burst factor for
// front-end s at the slot: 1 when no flash-crowd covers it, the largest
// active factor otherwise (overlapping crowds do not compound — the
// worst one wins).
func (sch *Schedule) FlashCrowdFactor(s, slot int) float64 {
	f := 1.0
	sch.walk(slot, func(e *Event) bool {
		if e.Kind == FlashCrowd && e.FrontEnd == s && e.Factor > f {
			f = e.Factor
		}
		return true
	})
	return f
}

// SlowCenterFactor returns center l's effective in-slot service fraction
// at the slot: 1 when no slow-center covers it, the smallest active
// factor otherwise (the deepest sag wins).
func (sch *Schedule) SlowCenterFactor(l, slot int) float64 {
	f := 1.0
	sch.walk(slot, func(e *Event) bool {
		if e.Kind == SlowCenter && e.Center == l && e.Factor < f {
			f = e.Factor
		}
		return true
	})
	return f
}

// CenterFactors assembles the per-center effective service fractions of
// an L-center topology for the slot from any active slow-center faults;
// nil when every center is nominal.
func (sch *Schedule) CenterFactors(L, slot int) []float64 {
	var out []float64
	for l := 0; l < L; l++ {
		if cf := sch.SlowCenterFactor(l, slot); cf < 1 {
			if out == nil {
				out = make([]float64, L)
				for i := range out {
					out[i] = 1
				}
			}
			out[l] = cf
		}
	}
	return out
}

// PlannerFault returns the planner fault injected at the slot, if any.
// When several cover the slot the first in schedule order wins.
func (sch *Schedule) PlannerFault(slot int) (Kind, bool) {
	if e := sch.find(slot, of(plannerFaults)); e != nil {
		return e.Kind, true
	}
	return "", false
}
