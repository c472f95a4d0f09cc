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
	// Plan is the planner-facing input: the fault-effective topology and
	// the arrivals and prices the feed layer delivered.
	Plan *core.Input
	// Actual is the settlement input: the same effective topology with
	// the true arrivals and prices the accounting uses.
	Actual *core.Input
	// Health is the slot's feed health.
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
// The planner's inputs always come through the telemetry feed layer, whose
// state (breakers, last-known-good caches, filters) makes the source
// stateful: slots must be requested in their natural order, exactly as
// Run visits them. Repeated calls for the most recent slot return the
// cached view — that is what lets a driver and a load generator share one
// source within a slot — but asking for an older slot is an error.
type InputSource struct {
	cfg   Config
	feeds *feed.Set
	last  *SlotView
	abs   int
}

// NewInputSource validates the config and builds the per-slot input
// assembler around the run's feed layer (a clean one when Config.Feeds is
// nil).
func NewInputSource(cfg Config) (*InputSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	feeds, err := buildFeeds(&cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	feeds.Instrument(cfg.Obs)
	return &InputSource{cfg: cfg, feeds: feeds, abs: cfg.StartSlot - 1}, nil
}

// Attach makes the source's feed layer the planner's forecaster: it walks
// the planner's wrapper chain (resilient chains, fault injectors —
// anything exposing Unwrap) to the first planner that consumes multi-step
// forecasts (internal/mpc), so its horizon assembly projects through the
// same estimator ladder that serves the per-slot fetches. Every plane that
// plans off a source calls it once, before the first slot — sim.Run,
// des.Run and dispatch.Driver do — or an MPC planner has no forecast to
// plan its window on. A no-op for planners that take no forecasts.
func (src *InputSource) Attach(p core.Planner) {
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

// Feeds exposes the source's feed layer.
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
	for s := 0; s < S; s++ {
		actual[s] = make([]float64, K)
		for k := 0; k < K; k++ {
			actual[s][k] = cfg.Traces[s].At(abs, k)
		}
	}
	prices := make([]float64, L)
	for l := 0; l < L; l++ {
		prices[l] = cfg.Faults.TruePrice(cfg.Prices[l], l, abs)
	}
	effSys, _ := cfg.Faults.EffectiveSystem(sys, abs)
	// The feed sources fold in the plan traces and the observation faults
	// (buildFeeds); stale or noisy samples mark the view distorted, and the
	// committed plan is reconciled against actual arrivals like any
	// forecast.
	sample := src.feeds.FetchSlot(abs)
	view := &SlotView{
		Plan:      &core.Input{Sys: effSys, Arrivals: sample.Arrivals, Prices: sample.Prices, Slot: abs},
		Actual:    &core.Input{Sys: effSys, Arrivals: actual, Prices: prices, Slot: abs},
		Health:    &sample.Health,
		Distorted: cfg.PlanTraces != nil || cfg.Faults.ArrivalsFaulted(abs) || sample.Distorted,
	}
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
// view (nil only when the view cannot be built), so a dispatch.Driver can
// forward it to planners that adapt to degraded telemetry, as Run does.
func (src *InputSource) FeedHealth(abs int) *feed.SlotHealth {
	view, err := src.View(abs)
	if err != nil {
		return nil
	}
	return view.Health
}
