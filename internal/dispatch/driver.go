package dispatch

import (
	"errors"
	"fmt"
	"sync/atomic"

	"profitlb/internal/core"
	"profitlb/internal/feed"
)

// PlanSource yields the planner-facing input for an absolute slot. The
// production implementation is the simulator's InputSource, which folds
// in fault observation and the telemetry feed layer; it is stateful and
// must be asked for slots in order. *sim.InputSource satisfies this
// interface structurally (no import needed). A source that also knows
// the feed health its view came with (FeedHealth, as *sim.InputSource
// does) has it forwarded to a feed.HealthObserver planner before the
// plan call; a source exposing only PlannerInput forwards nothing.
type PlanSource interface {
	PlannerInput(abs int) (*core.Input, error)
}

// healthSource is the optional second face of a PlanSource.
type healthSource interface {
	FeedHealth(abs int) *feed.SlotHealth
}

// forecastSource is the optional third: a source whose forecasts the
// planner plans on (sim.InputSource). Behind a source without it, an MPC
// planner's look-ahead slots shed (mpc.ErrNoForecast).
type forecastSource interface {
	Attach(core.Planner)
}

// Driver is the serving plane's slot engine: each PlanTable it pulls the
// slot's planner input from the source, commits it through the shared
// slot protocol (core.Step — on the planner's own view: the online plane
// has no settlement truth at the boundary, so a deferring planner's
// ledger settles against the arrivals it planned on) and compiles the
// epoch-stamped routing table the cluster publisher hands to its replicas
// (a lone gateway is a fleet of one). Any failure along the way degrades
// to an all-shed table — a serving plane must keep answering requests
// even when planning is on fire — and the failure is recorded on the
// table, never returned as an error. Like every stateful planner holder in
// this codebase, a Driver is driven by exactly one goroutine (the serve
// loop or the load generator).
type Driver struct {
	// Gateway supplies the topology, the compile configuration and the
	// observability scope; it never serves requests itself.
	Gateway *Gateway
	Planner core.Planner
	Source  PlanSource
	// LastErr records why the most recent slot degraded (nil otherwise).
	LastErr error

	// attached is set once the source has been made the planner's
	// forecaster, before the first slot is planned.
	attached bool

	// epoch numbers every table the driver mints, monotonically: the
	// driver is the fleet's single source of planning truth, and each
	// plan it commits — primary, fallback or emergency shed — gets the
	// next epoch. Replicas fence on it. Atomic because the cluster
	// publisher mints re-spread epochs from HTTP handler goroutines
	// while the slot loop plans.
	epoch atomic.Uint64
}

// Epoch returns the last epoch minted (0 before the first slot).
func (d *Driver) Epoch() uint64 { return d.epoch.Load() }

// NextEpoch mints the next plan epoch. The cluster publisher also draws
// from this sequence when a membership change forces a re-spread of the
// current plan without a new solve.
func (d *Driver) NextEpoch() uint64 { return d.epoch.Add(1) }

// PlanTable plans and compiles slot abs for the cluster publisher. The
// returned table is epoch-stamped; a slot whose input, plan or compile
// fails gets ShedTable with the cause parked in LastErr — replicas shed
// instead of erroring. The only error is a wiring mistake (missing
// gateway, planner or source).
func (d *Driver) PlanTable(abs int) (*Table, error) {
	if d.Gateway == nil || d.Planner == nil || d.Source == nil {
		return nil, errors.New("dispatch: driver needs a gateway, a planner and a plan source")
	}
	t, err := d.buildTable(abs)
	d.LastErr = err
	if err != nil {
		t = ShedTable(d.Gateway.sys, abs, d.Gateway.cfg)
	}
	t.Epoch = d.NextEpoch()
	if scope := d.Gateway.Scope(); scope.Enabled() {
		scope.Counter("dispatch_slots_total").Inc()
		if t.Degraded {
			scope.Counter("dispatch_slots_degraded_total").Inc()
		}
	}
	return t, nil
}

// buildTable produces the slot's routing table from a fresh commit.
func (d *Driver) buildTable(abs int) (*Table, error) {
	if !d.attached {
		d.attached = true
		if fs, ok := d.Source.(forecastSource); ok {
			fs.Attach(d.Planner)
		}
	}
	in, err := d.Source.PlannerInput(abs)
	if err != nil {
		return nil, fmt.Errorf("dispatch: slot %d input: %w", abs, err)
	}
	if hs, ok := d.Source.(healthSource); ok {
		hs.FeedHealth(abs).Notify(d.Planner)
	}
	c := core.Step(d.Planner, in, in, false)
	if c.Err != nil {
		return nil, fmt.Errorf("dispatch: slot %d: %w", abs, c.Err)
	}
	t, err := Compile(in, c.Plan, d.Gateway.cfg)
	if err != nil {
		return nil, fmt.Errorf("dispatch: slot %d compile: %w", abs, err)
	}
	if c.Degraded {
		t.Degraded, t.Tier = true, c.TierName
	}
	return t, nil
}
