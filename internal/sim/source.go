package sim

import (
	"fmt"

	"profitlb/internal/core"
	"profitlb/internal/feed"
)

// SlotView is everything one slot presents to a planner and to the
// settlement accounting: the planner-facing input (fault-observed,
// possibly feed-degraded), the ground-truth input, and the telemetry
// health that came with the planner's view.
type SlotView struct {
	// Plan is the planner-facing input: the fault-effective topology,
	// the observed (or feed-estimated) arrivals and prices.
	Plan *core.Input
	// Actual is the settlement input: the same effective topology with
	// the true arrivals and prices the accounting uses.
	Actual *core.Input
	// Health is the slot's feed health; nil on the oracle path.
	Health *feed.SlotHealth
	// Distorted reports that the planner's view may differ from reality
	// (forecast traces, observation faults, or stale/noisy feeds), so a
	// committed plan must be reconciled against Actual.Arrivals.
	Distorted bool
}

// InputSource assembles per-slot planner and settlement inputs for a
// configuration: the plan-extraction layer shared by sim.Run and the
// online dispatch plane (internal/dispatch), so both see byte-identical
// planner views for the same config and slot sequence.
//
// The source is stateful when the config routes inputs through the
// telemetry feed layer (breakers, last-known-good caches): slots must be
// requested in their natural order, exactly as Run visits them. Repeated
// calls for the most recent slot return the cached view — that is what
// lets a driver and a load generator share one source within a slot —
// but asking for an older slot is an error.
type InputSource struct {
	cfg   Config
	feeds *feed.Set
	last  *SlotView
	abs   int
}

// NewInputSource validates the config and builds the per-slot input
// assembler, including the feed layer when the config asks for one.
func NewInputSource(cfg Config) (*InputSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := &InputSource{cfg: cfg, abs: cfg.StartSlot - 1}
	if cfg.Feeds != nil {
		var err error
		if src.feeds, err = buildFeeds(&cfg); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		src.feeds.Instrument(cfg.Obs)
	}
	return src, nil
}

// Attach makes the source's feed layer the planner's forecaster: it walks
// the planner's wrapper chain (resilient chains, fault injectors —
// anything exposing Unwrap) to the first planner that consumes multi-step
// forecasts (internal/mpc), so its horizon assembly projects through the
// same estimator ladder that serves the per-slot fetches. Every plane that
// plans off a source calls it once, before the first slot — sim.Run,
// des.Run and dispatch.Driver do — or an MPC planner under feeds would
// forecast from its internal filters on that plane alone. A no-op
// on the oracle path and for planners that take no forecasts.
func (src *InputSource) Attach(p core.Planner) {
	if src.feeds == nil {
		return
	}
	for p != nil {
		if a, ok := p.(interface{ AttachForecast(core.ForecastSource) }); ok {
			a.AttachForecast(src.feeds)
			return
		}
		u, ok := p.(interface{ Unwrap() core.Planner })
		if !ok {
			return
		}
		p = u.Unwrap()
	}
}

// Feeds exposes the source's feed layer (nil on the oracle path).
func (src *InputSource) Feeds() *feed.Set { return src.feeds }

// Config returns the source's validated configuration.
func (src *InputSource) Config() *Config { return &src.cfg }

// View assembles the slot's planner and settlement inputs. abs is the
// absolute slot index. Asking again for the current slot returns the
// cached view; regressing breaks feed-state ordering and is an error.
func (src *InputSource) View(abs int) (*SlotView, error) {
	if src.last != nil && abs == src.abs {
		return src.last, nil
	}
	if abs < src.abs {
		return nil, fmt.Errorf("sim: input source already advanced to slot %d, cannot revisit %d", src.abs, abs)
	}
	cfg := &src.cfg
	sys := cfg.Sys
	K, S, L := sys.K(), sys.S(), sys.L()
	actual := make([][]float64, S)
	planArr := make([][]float64, S)
	for s := 0; s < S; s++ {
		actual[s] = make([]float64, K)
		planArr[s] = make([]float64, K)
		for k := 0; k < K; k++ {
			actual[s][k] = cfg.Traces[s].At(abs, k)
			v := actual[s][k]
			if cfg.PlanTraces != nil {
				v = cfg.PlanTraces[s].At(abs, k)
			}
			planArr[s][k] = cfg.Faults.ObservedArrival(v, s, abs)
		}
	}
	prices := make([]float64, L)     // true settlement prices
	planPrices := make([]float64, L) // the planner's (possibly stale) feed
	for l := 0; l < L; l++ {
		prices[l] = cfg.Faults.TruePrice(cfg.Prices[l], l, abs)
		planPrices[l] = cfg.Faults.ObservedPrice(cfg.Prices[l], l, abs)
	}
	effSys, _ := cfg.Faults.EffectiveSystem(sys, abs)
	view := &SlotView{
		Distorted: cfg.PlanTraces != nil || cfg.Faults.ArrivalsFaulted(abs),
	}
	if src.feeds != nil {
		// The feed layer replaces the planner's direct oracle view; its
		// sources already fold in the legacy observation faults, so the
		// raw planArr/planPrices above are superseded. Stale or noisy
		// samples mark the view distorted and the committed plan is
		// reconciled against actual arrivals like any forecast.
		sample := src.feeds.FetchSlot(abs)
		planPrices, planArr = sample.Prices, sample.Arrivals
		view.Distorted = view.Distorted || sample.Distorted
		view.Health = &sample.Health
	}
	view.Plan = &core.Input{Sys: effSys, Arrivals: planArr, Prices: planPrices, Slot: abs}
	view.Actual = &core.Input{Sys: effSys, Arrivals: actual, Prices: prices, Slot: abs}
	src.last, src.abs = view, abs
	return view, nil
}

// PlannerInput returns the slot's planner-facing input. It satisfies the
// dispatch plane's PlanSource interface, so an *InputSource plugs
// directly into a dispatch.Driver.
func (src *InputSource) PlannerInput(abs int) (*core.Input, error) {
	view, err := src.View(abs)
	if err != nil {
		return nil, err
	}
	return view.Plan, nil
}

// FeedHealth returns the feed health that came with slot abs's planner
// view (nil on the oracle path), so a dispatch.Driver can forward it to
// planners that adapt to degraded telemetry, as Run does.
func (src *InputSource) FeedHealth(abs int) *feed.SlotHealth {
	view, err := src.View(abs)
	if err != nil {
		return nil
	}
	return view.Health
}
