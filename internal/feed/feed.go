// Package feed models the telemetry layer between the scenario oracle and
// the planner: typed electricity-price and arrival-rate feeds with the
// failure semantics of a real ingestion path. The paper's optimization
// assumes every slot boundary delivers perfect p_l and λ_{k,s}; this
// package is where that assumption goes to die gracefully.
//
// Each feed fetches its oracle reading once per slot under bounded retry
// with exponential backoff and a per-slot latency deadline (time is
// virtual — milliseconds are accounted, never slept). Fault events from
// internal/fault (feed-delay, feed-dropout, feed-noise, feed-corrupt,
// feed-loss) impair the transport; a per-feed circuit breaker (closed →
// open → half-open) stops hammering a dead feed and probes it after a
// cooldown. When the live fetch fails, a fallback estimator chain stands
// in:
//
//	fresh sample → last-known-good (held for a TTL)
//	→ Kalman one-step forecast (internal/forecast) → prior
//
// Every Fetch reports Health — estimator tier, staleness age, breaker
// state, attempts spent — which the simulator records per slot and the
// resilient planner chain uses to escalate. Every run plans through a
// feed layer (sim.InputSource builds a clean one when the run names
// none), and the same estimators project a rolling-horizon planner's
// window (horizon.go). With no feed faults active every fetch is a
// first-attempt fresh sample: the planner sees the oracle readings bit
// for bit.
//
// All randomness (dropout draws, noise) is derived from a per-(feed,
// slot) splitmix hash of the configured seed, so a Set replays
// identically however many times it is rebuilt — sim.Compare lanes each
// build their own Set and face the same degradation sequence.
package feed

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"profitlb/internal/fault"
	"profitlb/internal/forecast"
	"profitlb/internal/obs"
)

// Tier identifies which estimator produced a slot's planner-facing value.
type Tier int

// The estimator chain, best to worst.
const (
	// TierFresh is a live sample fetched this slot (possibly noisy —
	// feed-noise corrupts readings undetectably).
	TierFresh Tier = iota
	// TierLKG replays the last-known-good sample while its age is within
	// the TTL.
	TierLKG
	// TierForecast is the Kalman filter's one-step-ahead prediction from
	// the good samples seen so far.
	TierForecast
	// TierPrior is the prior — the feed is effectively dark.
	TierPrior
)

// String renders the tier for reports.
func (t Tier) String() string {
	switch t {
	case TierFresh:
		return "fresh"
	case TierLKG:
		return "lkg"
	case TierForecast:
		return "forecast"
	case TierPrior:
		return "prior"
	default:
		return "unknown"
	}
}

// Health is one feed's condition during one slot.
type Health struct {
	// Tier is the estimator that produced the value.
	Tier Tier
	// Staleness is the age in slots of the newest good sample backing the
	// value: 0 when fresh, and the slots since the feed was born when no
	// good sample has ever arrived.
	Staleness int
	// Breaker is the circuit breaker's state after this slot's fetch.
	Breaker BreakerState
	// Attempts is the number of fetch attempts spent (0 when the breaker
	// was open and no fetch was tried).
	Attempts int
	// Noisy marks a fresh sample perturbed by an active feed-noise fault.
	Noisy bool
	// Failure is why the live fetch failed ("" on a fresh sample):
	// "deadline", "dropout", "corrupt", "lost" or "breaker-open".
	Failure string
}

// Label renders the health compactly, e.g. "fresh", "lkg(2)",
// "prior(5)!" — the bang marks an open breaker.
func (h Health) Label() string {
	s := h.Tier.String()
	if h.Tier != TierFresh {
		s = fmt.Sprintf("%s(%d)", s, h.Staleness)
	}
	if h.Breaker == Open {
		s += "!"
	}
	return s
}

// SlotHealth aggregates every feed's health for one slot.
type SlotHealth struct {
	// Prices[l] is the price feed of center l.
	Prices []Health
	// Arrivals[s] is the arrival feed of front-end s.
	Arrivals []Health
}

// HealthObserver is implemented by planners that adapt to degraded
// telemetry (see internal/resilient), e.g. by skipping an expensive
// optimizer whose inputs are guesswork.
type HealthObserver interface {
	ObserveFeedHealth(h *SlotHealth)
}

// Notify hands the slot's health to the planner before it is asked for
// the slot's plan, when the planner observes feed health; a nil health
// notifies nobody.
func (sh *SlotHealth) Notify(planner any) {
	if fo, ok := planner.(HealthObserver); ok && sh != nil {
		fo.ObserveFeedHealth(sh)
	}
}

// WorstTier returns the deepest estimator tier any feed fell to.
func (sh *SlotHealth) WorstTier() Tier {
	worst := TierFresh
	for _, h := range sh.Prices {
		if h.Tier > worst {
			worst = h.Tier
		}
	}
	for _, h := range sh.Arrivals {
		if h.Tier > worst {
			worst = h.Tier
		}
	}
	return worst
}

// Unusable reports whether any feed is down to its prior — it has no
// sample, no usable cache and no warmed forecast, i.e. the planner is
// flying blind on at least one input. The resilient chain escalates past
// its primary tier on unusable slots (Chain.EscalateOnDegraded).
func (sh *SlotHealth) Unusable() bool { return sh.WorstTier() == TierPrior }

// AllFresh reports whether every feed delivered a live sample.
func (sh *SlotHealth) AllFresh() bool {
	for _, h := range sh.Prices {
		if h.Tier != TierFresh {
			return false
		}
	}
	for _, h := range sh.Arrivals {
		if h.Tier != TierFresh {
			return false
		}
	}
	return true
}

// Config is what a run chooses about its feed layer; the zero value is
// valid. The rest is fixed (the constants below).
type Config struct {
	// EscalateOnDark makes the resilient chain skip its primary
	// optimizer on slots where feeds report Unusable.
	EscalateOnDark bool `json:"escalateOnDark,omitempty"`
	// Seed drives dropout and noise draws; equal seeds replay equal
	// degradation sequences.
	Seed int64 `json:"seed,omitempty"`
}

// Every feed's transport, breaker and estimator-chain settings.
const (
	// maxAttempts bounds fetch retries per slot.
	maxAttempts = 3
	// attemptLatencyMs is the virtual cost of one fetch attempt.
	// Feed-delay faults multiply it.
	attemptLatencyMs = 20.0
	// baseBackoffMs is the backoff before the second attempt, doubling
	// per retry.
	baseBackoffMs = 25.0
	// deadlineMs is the per-slot fetch budget; attempts that would start
	// past it fail the slot with "deadline".
	deadlineMs = 250.0
	// breakerTrip is the consecutive failed slots that open the circuit
	// breaker; breakerCooldown is the slots it stays open before a
	// half-open trial fetch.
	breakerTrip     = 2
	breakerCooldown = 2
	// ttl is how many slots a last-known-good sample stays usable.
	ttl = 3
	// minObservations gates the forecast tier: the filter must have
	// consumed at least this many good samples.
	minObservations = 2
	// staleMargin inflates the planner's arrival inputs by this fraction
	// per slot of staleness, reserving headroom for the demand a stale
	// estimate may be under-calling; maxMargin caps the inflation. The
	// simulator reconciles the committed plan against actual arrivals, so
	// the margin costs reservation headroom, never phantom revenue.
	staleMargin = 0.05
	maxMargin   = 0.5
)

// Feed is one telemetry feed: a vector source (width 1 for a price feed,
// K for an arrival feed) behind the transport, breaker, cache and
// estimator chain. Fetch must be called by a single goroutine with
// non-decreasing slots — the simulator's slot loop is that driver. A
// small mutex additionally serializes Fetch against PredictAhead, whose
// caller (a rolling-horizon planner under a resilient chain's per-tier
// deadline) can outlive its slot and overlap the next slot's fetch.
type Feed struct {
	mu   sync.Mutex
	kind string // fault.FeedPrice or fault.FeedArrival
	idx  int
	seed int64 // Config.Seed
	sch  *fault.Schedule
	src  func(slot int) []float64
	// prior is the estimator of last resort; floor is the smallest value
	// the feed ever emits (a sliver of the prior for prices — electricity
	// is never free — and zero for arrivals).
	prior   []float64
	floor   float64
	br      breaker
	filters []*forecast.Kalman
	lkg     []float64
	lkgSlot int
	hasLKG  bool
	born    int
	started bool
	// Observability (see obs.go): the attached scope plus the previous
	// slot's tier and breaker state, so transitions emit exactly one
	// trace event. All nil-safe; a scope never alters a reading.
	sc          *obs.Scope
	prevTier    Tier
	prevBreaker BreakerState
	prevKnown   bool
}

// newFeed builds one feed. Each element's filter noise is relative to
// its prior magnitude.
func newFeed(kind string, idx int, seed int64, sch *fault.Schedule, prior []float64, src func(int) []float64) (*Feed, error) {
	f := &Feed{
		kind: kind, idx: idx, seed: seed, sch: sch, src: src,
		prior:   append([]float64(nil), prior...),
		filters: make([]*forecast.Kalman, len(prior)),
	}
	if kind == fault.FeedPrice {
		f.floor = prior[0] * 0.01
	}
	for i, p := range prior {
		scale := p
		if scale <= 0 {
			scale = 1
		}
		k, err := forecast.NewKalman(sq(forecast.ProcessRel*scale), sq(forecast.MeasureRel*scale))
		if err != nil {
			return nil, fmt.Errorf("feed: %s %d: %w", kind, idx, err)
		}
		f.filters[i] = k
	}
	return f, nil
}

func sq(v float64) float64 { return v * v }

// Fetch produces the slot's planner-facing reading and its health. The
// returned slice is owned by the caller.
func (f *Feed) Fetch(slot int) ([]float64, Health) {
	f.mu.Lock()
	out, h := f.fetch(slot)
	f.mu.Unlock()
	f.note(slot, h)
	return out, h
}

func (f *Feed) fetch(slot int) ([]float64, Health) {
	if !f.started {
		f.born, f.started = slot, true
	}
	h := Health{}
	eff := f.sch.FeedEffects(f.kind, f.idx, slot)
	var ok bool
	if f.br.Allow(slot) {
		rng := slotStream{f: f, slot: slot}
		ok, h.Attempts, h.Failure = f.transport(&rng, eff)
		f.br.Record(slot, ok)
		if ok {
			out := f.observe(slot, &rng, eff, &h)
			h.Breaker = f.br.state
			return out, h
		}
	} else {
		h.Failure = "breaker-open"
	}
	out := f.estimate(slot, &h)
	h.Breaker = f.br.state
	return out, h
}

// transport runs the bounded-retry fetch against the slot's fault
// effects, spending virtual latency against the per-slot deadline.
func (f *Feed) transport(rng *slotStream, eff fault.FeedEffects) (ok bool, attempts int, failure string) {
	elapsed := 0.0
	backoff := baseBackoffMs
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			elapsed += backoff
			backoff *= 2
		}
		elapsed += attemptLatencyMs * eff.LatencyFactor
		if elapsed > deadlineMs {
			return false, attempt, "deadline"
		}
		switch {
		case eff.Lost:
			failure = "lost"
		case eff.DropProb > 0 && rng.draw().Float64() < eff.DropProb:
			failure = "dropout"
		case eff.Corrupt:
			failure = "corrupt"
		default:
			return true, attempt, ""
		}
		attempts = attempt
	}
	return false, attempts, failure
}

// observe turns a successful fetch into the fresh reading: the oracle
// values, noise-perturbed under an active feed-noise fault, clamped to
// the feed's floor, then folded into the LKG cache and the filters. A
// noisy reading poisons the cache and the filters too — the feed cannot
// tell it is wrong, which is exactly the exposure feed-noise models.
func (f *Feed) observe(slot int, rng *slotStream, eff fault.FeedEffects, h *Health) []float64 {
	row := f.src(slot)
	out := make([]float64, len(f.prior))
	copy(out, row)
	if eff.NoiseSigma > 0 {
		h.Noisy = true
		for i := range out {
			out[i] *= 1 + eff.NoiseSigma*rng.draw().NormFloat64()
			// Only noisy readings need the floor — an unperturbed sample is
			// the oracle value and must pass through bit-identical.
			if out[i] < f.floor || math.IsNaN(out[i]) {
				out[i] = f.floor
			}
		}
	}
	for i := range out {
		f.filters[i].Observe(out[i])
	}
	f.lkg = append(f.lkg[:0], out...)
	f.lkgSlot, f.hasLKG = slot, true
	h.Tier, h.Staleness = TierFresh, 0
	return append([]float64(nil), out...)
}

// estimate runs the fallback chain for a slot whose live fetch failed.
func (f *Feed) estimate(slot int, h *Health) []float64 {
	out := make([]float64, len(f.prior))
	switch {
	case f.hasLKG && slot-f.lkgSlot <= ttl:
		h.Tier, h.Staleness = TierLKG, slot-f.lkgSlot
		f.held(out)
	case f.filters[0].Warm(minObservations):
		h.Tier = TierForecast
		h.Staleness = f.age(slot)
		for i := range out {
			est, _ := f.filters[i].Predict()
			out[i] = est
		}
	default:
		h.Tier = TierPrior
		h.Staleness = f.age(slot)
		copy(out, f.prior)
	}
	for i := range out {
		if out[i] < f.floor || math.IsNaN(out[i]) {
			out[i] = f.floor
		}
	}
	return out
}

// held writes the last-known-good sample into out, as an offset from the
// prior: it once decayed toward it, at a rate nobody set below 1, and
// every recorded LKG slot carries prior + (lkg − prior)'s last bit.
func (f *Feed) held(out []float64) {
	for i := range out {
		out[i] = f.prior[i] + (f.lkg[i] - f.prior[i])
	}
}

// age is the slots since the newest good sample (since birth when none).
func (f *Feed) age(slot int) int {
	if f.hasLKG {
		return slot - f.lkgSlot
	}
	return slot - f.born + 1
}

// Set bundles one price feed per data center and one arrival feed per
// front-end. Build one per simulation run: feeds are stateful (breaker,
// cache, filters) and single-goroutine, and a freshly built Set replays
// the same degradation sequence, which is what keeps sim.Compare lanes
// aligned.
type Set struct {
	prices   []*Feed
	arrivals []*Feed
}

// NewSet builds the feed layer. priceSrc[l] and arrivalSrc[s] are the
// oracle readings (already composed with any legacy observation faults);
// pricePriors[l] and arrivalPriors[s][k] are the priors, the estimators
// of last resort.
func NewSet(cfg Config, sch *fault.Schedule, priceSrc []func(int) float64, pricePriors []float64,
	arrivalSrc []func(int) []float64, arrivalPriors [][]float64) (*Set, error) {
	st := &Set{}
	for l := range priceSrc {
		prior := pricePriors[l]
		if prior <= 0 {
			return nil, fmt.Errorf("feed: price feed %d needs a positive prior, got %g", l, prior)
		}
		src := priceSrc[l]
		f, err := newFeed(fault.FeedPrice, l, cfg.Seed, sch, []float64{prior},
			func(slot int) []float64 { return []float64{src(slot)} })
		if err != nil {
			return nil, err
		}
		st.prices = append(st.prices, f)
	}
	for s := range arrivalSrc {
		f, err := newFeed(fault.FeedArrival, s, cfg.Seed, sch, arrivalPriors[s], arrivalSrc[s])
		if err != nil {
			return nil, err
		}
		st.arrivals = append(st.arrivals, f)
	}
	return st, nil
}

// Sample is one slot's planner-facing inputs as the feed layer delivered
// them.
type Sample struct {
	// Prices[l] and Arrivals[s][k] are the planner's inputs; stale
	// arrival estimates are already inflated by the staleness margin.
	Prices   []float64
	Arrivals [][]float64
	// Health records every feed's condition.
	Health SlotHealth
	// Distorted reports whether the planner's view may differ from the
	// oracle readings (any non-fresh tier, noise, or margin inflation) —
	// the simulator reconciles the committed plan against reality when
	// set.
	Distorted bool
}

// FetchSlot fetches every feed for the slot and applies the staleness
// margin to non-fresh arrival estimates.
func (st *Set) FetchSlot(slot int) *Sample {
	out := &Sample{
		Prices:   make([]float64, len(st.prices)),
		Arrivals: make([][]float64, len(st.arrivals)),
		Health: SlotHealth{
			Prices:   make([]Health, len(st.prices)),
			Arrivals: make([]Health, len(st.arrivals)),
		},
	}
	for l, f := range st.prices {
		v, h := f.Fetch(slot)
		out.Prices[l], out.Health.Prices[l] = v[0], h
		if h.Tier != TierFresh || h.Noisy {
			out.Distorted = true
		}
	}
	for s, f := range st.arrivals {
		row, h := f.Fetch(slot)
		if h.Tier != TierFresh {
			m := math.Min(maxMargin, staleMargin*float64(h.Staleness))
			for k := range row {
				row[k] *= 1 + m
			}
		}
		out.Arrivals[s], out.Health.Arrivals[s] = row, h
		if h.Tier != TierFresh || h.Noisy {
			out.Distorted = true
		}
	}
	return out
}

// slotStream is one fetch's handle on the per-(feed, slot) random
// stream: a splitmix64 hash of seed, feed identity and slot, so draws are
// independent of call order across feeds and identical across rebuilt
// Sets. Seeding math/rand fills a 607-word, ~5 KB state and only a
// dropout or noise fault ever draws, so the generator is built on the
// first draw: a clean fetch seeds nothing, and a faulted one draws what
// it always drew — the seed depends on nothing that happened before,
// and transport and observe share the one handle, hence one draw order.
type slotStream struct {
	f    *Feed
	slot int
	rng  *rand.Rand
}

func (s *slotStream) draw() *rand.Rand {
	if s.rng == nil {
		h := uint64(s.f.seed)
		for _, b := range []byte(s.f.kind) {
			h = splitmix64(h ^ uint64(b))
		}
		h = splitmix64(h ^ uint64(uint32(s.f.idx)))
		h = splitmix64(h ^ uint64(uint32(s.slot)))
		s.rng = rand.New(rand.NewSource(int64(h)))
	}
	return s.rng
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
