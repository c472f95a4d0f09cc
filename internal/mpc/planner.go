package mpc

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"profitlb/internal/core"
	"profitlb/internal/obs"
)

// Planner is the rolling-horizon controller. It implements
// core.DeferralPlanner; hosts must drive CommitSlot exactly once per slot
// (see the package comment). Unlike the other stateful planners, every
// method is mutex-guarded rather than single-caller: a resilient chain
// that abandons a timed-out Plan call leaves its goroutine running, and
// the chain's fallback commit (ForceDrain) plus the simulator's
// settlement (CommitSlot) race against it. The mutex makes those
// overlaps safe — bucket state is only ever mutated by CommitSlot, so an
// abandoned Plan can at worst warm the LP basis with a discarded window
// and overwrite the Forced diagnostic.
type Planner struct {
	mu  sync.Mutex
	cfg Config

	myopic  *core.Optimized
	horizon *core.HorizonPlanner
	fs      core.ForecastSource
	sc      *obs.Scope

	// backlog[s][k][r] is buffered work (rate units) at front-end s of
	// class k that must be served within r further slots.
	backlog [][][]float64
	// forced[k] is the volume the latest force-drain placed, consumed by
	// the next CommitSlot (replace semantics: each drain overwrites it, so
	// an abandoned tier's drain cannot double-count).
	forced []float64
}

// ErrNoForecast fails a slot whose window reaches past slot 0 while no
// forecast source is attached: the planner has nothing to plan the later
// slots on. A host attaches one through sim.InputSource.Attach.
var ErrNoForecast = errors.New("mpc: horizon window needs a forecast source, none attached")

// New returns a controller for the configuration (defaults applied).
func New(cfg Config) *Planner {
	return &Planner{
		cfg:     cfg.WithDefaults(),
		myopic:  core.NewOptimized(),
		horizon: core.NewHorizonPlanner(),
	}
}

// Name implements core.Planner.
func (p *Planner) Name() string { return "mpc" }

// Config returns the effective (defaulted) configuration.
func (p *Planner) Config() Config { return p.cfg }

// AttachForecast routes horizon assembly through a multi-step forecast
// source (the telemetry feed layer); without one a window longer than one
// slot fails with ErrNoForecast.
func (p *Planner) AttachForecast(fs core.ForecastSource) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fs = fs
}

// Instrument streams the controller's counters — backlog depth, deferred
// and forced and shed volume, horizon solve latency — and the window
// solves' own (the horizon planner's core_lp_* counters and engine event)
// into the observability layer. The scope only watches; plans are
// identical with or without it.
func (p *Planner) Instrument(sc *obs.Scope) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sc, p.horizon.Obs = sc, sc
}

// lazyInit shapes the backlog on first use. K and S never change across a
// run (fault-effective topologies reshape centers, not classes or
// front-ends).
func (p *Planner) lazyInit(K, S int) {
	if p.backlog != nil {
		return
	}
	p.backlog = make([][][]float64, S)
	for s := 0; s < S; s++ {
		p.backlog[s] = make([][]float64, K)
	}
	p.forced = make([]float64, K)
}

// Plan implements core.Planner: assemble the window, solve the joint LP,
// commit slot 0 with due buckets force-drained. Plan never mutates the
// backlog — settlement is CommitSlot's.
func (p *Planner) Plan(in *core.Input) (*core.Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lazyInit(in.Sys.K(), in.Sys.S())
	for k := range p.forced {
		p.forced[k] = 0
	}
	H := p.effHorizon(in.Slot)
	if p.cfg.myopicOnly() || (H == 1 && p.backlogEmpty()) {
		// No lookahead to exploit and nothing buffered: the myopic
		// optimizer (with its subset refinement, which the horizon LP
		// lacks) is exactly right, and bit-identical to a plain run.
		return p.myopic.Plan(in)
	}

	hin, err := p.assembleWindow(in, H)
	if err != nil {
		return nil, p.failed(err)
	}
	start := time.Now()
	hp, err := p.horizon.Plan(hin)
	if p.sc.Enabled() {
		p.sc.Histogram("mpc_horizon_solve_seconds", nil, obs.L("planner", p.Name())).
			Observe(time.Since(start).Seconds())
		p.sc.Gauge("mpc_horizon_slots", obs.L("planner", p.Name())).Set(float64(H))
	}
	if err != nil {
		return nil, p.failed(fmt.Errorf("mpc: horizon solve: %w", err))
	}
	plan := hp.Slots[0]
	p.forceDrainLocked(in, plan)
	plan.Objective = core.PlanObjective(in, plan)
	return plan, nil
}

// failed counts a slot whose window could not be assembled or solved.
func (p *Planner) failed(err error) error {
	if p.sc.Enabled() {
		p.sc.Counter("mpc_horizon_failures_total", obs.L("planner", p.Name())).Add(1)
	}
	return err
}

// effHorizon is the window length for a plan starting at slot: the
// configured horizon, truncated at the run's end.
func (p *Planner) effHorizon(slot int) int {
	H := p.cfg.Horizon
	if p.cfg.EndSlot > 0 {
		if rem := p.cfg.EndSlot - slot; rem < H {
			H = rem
		}
	}
	if H < 1 {
		H = 1
	}
	return H
}

// assembleWindow builds the H-slot horizon input: slot 0 is the live
// telemetry, slots 1..H−1 come from the attached forecast source, and the
// backlog is a snapshot of the aging buckets.
func (p *Planner) assembleWindow(in *core.Input, H int) (*core.HorizonInput, error) {
	sys := in.Sys
	K, S, L := sys.K(), sys.S(), sys.L()
	hin := &core.HorizonInput{
		Sys:      sys,
		Arrivals: make([][][]float64, H),
		Prices:   make([][]float64, H),
		MaxDefer: make([]int, K),
		Backlog:  make([][][]float64, S),
	}
	for k := 0; k < K; k++ {
		hin.MaxDefer[k] = p.cfg.maxDefer(k)
	}
	for s := 0; s < S; s++ {
		hin.Backlog[s] = make([][]float64, K)
		for k := 0; k < K; k++ {
			hin.Backlog[s][k] = append([]float64(nil), p.backlog[s][k]...)
		}
	}
	hin.Arrivals[0] = copyMatrix(in.Arrivals)
	hin.Prices[0] = append([]float64(nil), in.Prices...)
	if H == 1 {
		return hin, nil
	}
	if p.fs == nil {
		return nil, ErrNoForecast
	}
	prices, arrivals := p.fs.ForecastHorizon(H - 1)
	if err := sourceShape(prices, arrivals, H-1, L, S); err != nil {
		return nil, err
	}
	for t := 1; t < H; t++ {
		hin.Prices[t] = clampRow(prices[t-1], L)
		// Robustness hedge: deferring work to slot t only pays if the
		// forecast saving survives a (1+priceHedge) price error.
		for l := range hin.Prices[t] {
			hin.Prices[t][l] *= 1 + priceHedge
		}
		hin.Arrivals[t] = make([][]float64, S)
		for s := 0; s < S; s++ {
			hin.Arrivals[t][s] = clampRow(arrivals[t-1][s], K)
		}
	}
	return hin, nil
}

// sourceShape checks a forecast's dimensions: h steps of L prices and S
// front-ends' arrivals. A source answering in the wrong shape fails the
// slot rather than being patched over.
func sourceShape(prices [][]float64, arrivals [][][]float64, h, L, S int) error {
	if len(prices) != h || len(arrivals) != h {
		return fmt.Errorf("mpc: forecast source returned %d price and %d arrival steps, want %d of each", len(prices), len(arrivals), h)
	}
	for i := 0; i < h; i++ {
		if len(prices[i]) != L || len(arrivals[i]) != S {
			return fmt.Errorf("mpc: forecast source step %d has %d prices and %d front-ends, want %d and %d", i+1, len(prices[i]), len(arrivals[i]), L, S)
		}
	}
	return nil
}

// clampRow copies a forecast row, flooring negatives, NaNs and
// infinities to zero so a degraded source cannot produce an invalid
// horizon input.
func clampRow(row []float64, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n && i < len(row); i++ {
		if v := row[i]; v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[i] = v
		}
	}
	return out
}

func copyMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

func (p *Planner) backlogEmpty() bool {
	for s := range p.backlog {
		for k := range p.backlog[s] {
			for _, v := range p.backlog[s][k] {
				if v > 0 {
					return false
				}
			}
		}
	}
	return true
}
