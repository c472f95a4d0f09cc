// Package config serializes complete simulation scenarios — topology,
// workload traces, electricity prices, horizon and planner choice — to and
// from JSON, so experiments can be defined as files and replayed from the
// CLI (`profitlb simulate -config scenario.json`).
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"profitlb/internal/baseline"
	"profitlb/internal/cluster"
	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/dispatch"
	"profitlb/internal/fault"
	"profitlb/internal/feed"
	"profitlb/internal/market"
	"profitlb/internal/mpc"
	"profitlb/internal/obs"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

// Scenario is a fully self-contained simulation description.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// System is the topology; the request classes' TUFs serialize as
	// level arrays.
	System *datacenter.System `json:"system"`
	// Traces holds one arrival trace per front-end.
	Traces []*workload.Trace `json:"traces"`
	// Prices holds one electricity trace per data center. A trace with
	// Name set and no Prices is resolved against the embedded locations
	// (Houston, MountainView, Atlanta).
	Prices []*market.PriceTrace `json:"prices"`
	// Slots and StartSlot define the simulated window.
	Slots     int `json:"slots"`
	StartSlot int `json:"startSlot,omitempty"`
	// Planner selects the dispatcher: "optimized" (default),
	// "optimized/per-server", "level-search", "balanced", "nearest",
	// "greedy-profit", "random" or "mpc" (the rolling-horizon planner of
	// internal/mpc, tuned by the MPC block).
	Planner string `json:"planner,omitempty"`
	// MPC sets up the rolling-horizon planner (planner "mpc"): window
	// length, per-class deferral allowances and end-of-run truncation. An
	// absent EndSlot defaults to StartSlot+Slots so simulated runs never
	// strand deferred work. Ignored by the other planners.
	MPC *mpc.Config `json:"mpc,omitempty"`
	// WarmStart overrides the warm-started simplex re-solves of the
	// optimized and level-search planners (DESIGN.md §12). Absent keeps
	// the planner default (on); false forces every slot LP to solve cold
	// on the dense two-phase simplex (the reference path).
	WarmStart *bool `json:"warmStart,omitempty"`
	// Faults optionally injects a deterministic fault schedule (center
	// outages/degradations, price spikes/blackouts, arrival-trace
	// drops/corruptions, planner timeout/error/panic). See DESIGN.md
	// "Fault model & graceful degradation" for the event syntax.
	Faults *fault.Schedule `json:"faults,omitempty"`
	// Resilient wraps the planner in the fallback chain of
	// internal/resilient (planner → greedy level-search → balanced →
	// last-plan replay → shed), so planner faults and infeasible slots
	// degrade instead of aborting. It is implied whenever Faults carries
	// planner-fault events.
	Resilient bool `json:"resilient,omitempty"`
	// Feeds configures the telemetry feed layer (internal/feed) every
	// planner input comes through: retry/backoff fetches, circuit
	// breakers, last-known-good caching and the forecast/prior fallback
	// chain; nil means the zero feed.Config. Feed fault events in Faults
	// impair the transport. With a resilient chain, Feeds.EscalateOnDark
	// makes the chain skip its primary tier on slots whose feeds are
	// unusable. The CLI prints feed health when the scenario sets it.
	Feeds *feed.Config `json:"feeds,omitempty"`
	// Dispatch configures the online serving plane for `profitlb serve`
	// and `profitlb loadtest` (internal/dispatch): token-bucket burst,
	// the wall-clock slot length, the routing seed and the exposed
	// front-ends. Simulation commands ignore it.
	Dispatch *dispatch.Config `json:"dispatch,omitempty"`
	// Cluster configures the gateway fleet (internal/cluster) that
	// `profitlb serve` and `profitlb loadtest` run:
	// fleet size and the plan-pull transport's wall-clock settings. Nil
	// (or zero replicas) means a fleet of one. Simulation commands ignore
	// it.
	Cluster *cluster.Config `json:"cluster,omitempty"`
	// Obs, when non-nil, threads the observability scope (internal/obs)
	// through the run: the simulator's slot events, the resilient
	// chain's escalations, the core engine's solver counters and the
	// feed layer's health transitions all land on it. Set by the CLI's
	// -metrics/-trace/-pprof flags; never serialized.
	Obs *obs.Scope `json:"-"`
}

// ErrUnknownPlanner is returned for an unrecognized planner name.
var ErrUnknownPlanner = errors.New("config: unknown planner")

// Load decodes and validates a scenario from JSON.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("config: decoding scenario: %w", err)
	}
	if err := s.resolvePrices(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Save encodes the scenario as indented JSON.
func (s *Scenario) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// resolvePrices fills in embedded location traces referenced by name.
func (s *Scenario) resolvePrices() error {
	for i, p := range s.Prices {
		if p == nil {
			return fmt.Errorf("config: price trace %d is null", i)
		}
		if len(p.Prices) > 0 {
			continue
		}
		var found *market.PriceTrace
		for _, loc := range market.Locations() {
			if strings.EqualFold(loc.Name, p.Name) {
				found = loc
				break
			}
		}
		if found == nil {
			return fmt.Errorf("config: price trace %d (%q) has no prices and is not an embedded location", i, p.Name)
		}
		s.Prices[i] = found
	}
	return nil
}

// Validate checks the scenario end to end via the simulator's own checks,
// resolving embedded price-location references first.
func (s *Scenario) Validate() error {
	if s.System == nil {
		return errors.New("config: scenario has no system")
	}
	if err := s.resolvePrices(); err != nil {
		return err
	}
	if err := s.Dispatch.Validate(s.System); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if s.Cluster != nil {
		if err := s.Cluster.Validate(); err != nil {
			return fmt.Errorf("config: %w", err)
		}
		if err := s.Faults.ValidateCluster(s.Cluster.Replicas); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	} else if s.Faults.HasClusterFaults() {
		return errors.New("config: scenario carries cluster fault events but no cluster block")
	}
	if s.MPC != nil {
		if err := s.MPCConfig().Validate(len(s.System.Classes)); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	cfg := s.SimConfig()
	return cfg.Validate()
}

// ClusterConfig returns the scenario's cluster block with defaults
// applied, or the zero configuration (a fleet of one) when absent.
func (s *Scenario) ClusterConfig() cluster.Config {
	if s.Cluster == nil {
		return cluster.Config{}
	}
	return s.Cluster.WithDefaults()
}

// MPCConfig returns the scenario's mpc block with defaults applied — an
// absent EndSlot becomes the end of the simulated window — or the pure
// defaults when the scenario has none.
func (s *Scenario) MPCConfig() mpc.Config {
	var mc mpc.Config
	if s.MPC != nil {
		mc = *s.MPC
	}
	if mc.EndSlot == 0 {
		mc.EndSlot = s.StartSlot + s.Slots
	}
	return mc.WithDefaults()
}

// DispatchConfig returns the scenario's dispatch block, or the defaults
// when the scenario has none.
func (s *Scenario) DispatchConfig() dispatch.Config {
	if s.Dispatch == nil {
		return dispatch.Config{}.WithDefaults()
	}
	return s.Dispatch.WithDefaults()
}

// SimConfig converts the scenario into a simulator configuration. A
// scenario with faults or a resilient chain runs with graceful
// degradation: failed slots shed load and the horizon continues.
func (s *Scenario) SimConfig() sim.Config {
	return sim.Config{
		Sys:              s.System,
		Traces:           s.Traces,
		Prices:           s.Prices,
		Slots:            s.Slots,
		StartSlot:        s.StartSlot,
		Faults:           s.Faults,
		Feeds:            s.Feeds,
		Obs:              s.Obs,
		DegradeOnFailure: s.Faults != nil || s.Resilient,
	}
}

// BuildPlanner instantiates the scenario's planner, wrapping it in a
// fault injector when the schedule carries planner faults, and in the
// resilient fallback chain when Resilient is set (or injected planner
// faults make one necessary for the horizon to survive).
func (s *Scenario) BuildPlanner() (core.Planner, error) {
	p, err := s.basePlanner()
	if err != nil {
		return nil, err
	}
	if s.Faults.HasPlannerFaults() {
		p = &fault.Injector{Planner: p, Sched: s.Faults}
	}
	if s.Resilient || s.Faults.HasPlannerFaults() {
		chain := resilient.Wrap(p)
		chain.Obs = s.Obs
		if s.Faults.HasPlannerFaults() {
			// Injected hangs must overrun the per-tier deadline to
			// register as timeouts rather than merely slow slots.
			chain.Timeout = fault.DefaultHang / 2
		}
		if s.Feeds != nil && s.Feeds.EscalateOnDark {
			chain.EscalateOnDegraded = true
		}
		return chain, nil
	}
	return p, nil
}

// engine overlays the scenario's engine overrides and scope onto a
// planner's default knobs.
func (s *Scenario) engine(e *core.EngineOptions) {
	if s.WarmStart != nil {
		e.WarmStart = *s.WarmStart
	}
	e.Obs = s.Obs
}

// basePlanner resolves the planner name and applies the scenario's
// engine overrides to the planners that have a search engine.
func (s *Scenario) basePlanner() (core.Planner, error) {
	switch name := strings.ToLower(strings.TrimSpace(s.Planner)); name {
	case "", "optimized", "optimized/per-server":
		p := core.NewOptimized()
		p.PerServer = name == "optimized/per-server"
		s.engine(&p.EngineOptions)
		return p, nil
	case "level-search":
		p := core.NewLevelSearch()
		s.engine(&p.EngineOptions)
		return p, nil
	case "mpc":
		p := mpc.New(s.MPCConfig())
		p.Instrument(s.Obs)
		return p, nil
	case "balanced":
		return baseline.NewBalanced(), nil
	case "nearest":
		return baseline.NewNearest(), nil
	case "greedy-profit":
		return baseline.NewGreedyProfit(), nil
	case "random":
		return baseline.NewRandom(1), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlanner, s.Planner)
	}
}

// Run validates and executes the scenario.
func (s *Scenario) Run() (*sim.Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p, err := s.BuildPlanner()
	if err != nil {
		return nil, err
	}
	return sim.Run(s.SimConfig(), p)
}

// Example returns a small, valid, runnable scenario, used by the CLI's
// scaffold command as a starting point for hand-written configs.
func Example() *Scenario {
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{
				Name:                "web",
				TUF:                 mustTUF(`[{"Utility":0.01,"Deadline":0.01}]`),
				TransferCostPerMile: 1e-6,
			},
			{
				Name:                "batch",
				TUF:                 mustTUF(`[{"Utility":0.05,"Deadline":0.05},{"Utility":0.02,"Deadline":0.25}]`),
				TransferCostPerMile: 2e-6,
			},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "us-east", DistanceMiles: []float64{300, 2400}},
			{Name: "us-west", DistanceMiles: []float64{2500, 200}},
		},
		Centers: []datacenter.DataCenter{
			{Name: "texas", Servers: 8, Capacity: 1,
				ServiceRate: []float64{20000, 3000}, EnergyPerRequest: []float64{0.0003, 0.004}},
			{Name: "california", Servers: 8, Capacity: 1,
				ServiceRate: []float64{18000, 3500}, EnergyPerRequest: []float64{0.0003, 0.0035}},
		},
	}
	east := workload.ShiftTypes("us-east",
		workload.WorldCupLike(workload.WorldCupConfig{Seed: 1, Base: 30000}), 2, 6)
	west := workload.ShiftTypes("us-west",
		workload.WorldCupLike(workload.WorldCupConfig{Seed: 2, Base: 24000}), 2, 6)
	return &Scenario{
		Name:    "example",
		System:  sys,
		Traces:  []*workload.Trace{east, west},
		Prices:  []*market.PriceTrace{{Name: "Houston"}, {Name: "MountainView"}},
		Slots:   24,
		Planner: "optimized",
	}
}

func mustTUF(levelsJSON string) *tuf.StepDownward {
	t := &tuf.StepDownward{}
	if err := json.Unmarshal([]byte(levelsJSON), t); err != nil {
		panic(err)
	}
	return t
}
