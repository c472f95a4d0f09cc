// Package profitlb is a reproduction of "Profit Aware Load Balancing for
// Distributed Cloud Data Centers" (Liu, Ren, Quan, Zhao, Ren — IPDPS
// Workshops 2013): an energy-, profit- and cost-aware request dispatching
// and resource allocation library for a cloud provider operating
// geographically distributed data centers in a multi-electricity-market
// environment.
//
// The package is a facade over the implementation packages. A typical use:
//
//	sys := &profitlb.System{ ... }           // topology: classes, front-ends, centers
//	cfg := profitlb.SimConfig{Sys: sys, Traces: ..., Prices: ..., Slots: 24}
//	rep, err := profitlb.Simulate(cfg, profitlb.NewOptimized())
//
// The Optimized planner maximizes the provider's net profit (utility earned
// by meeting per-type SLA time-utility functions, minus electricity and
// transfer dollar costs) by solving a per-slot linear program; Balanced is
// the paper's static price-ordered baseline. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-vs-measured record.
package profitlb

import (
	"io"

	"profitlb/internal/baseline"
	"profitlb/internal/config"
	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/des"
	"profitlb/internal/exp"
	"profitlb/internal/fault"
	"profitlb/internal/forecast"
	"profitlb/internal/lp"
	"profitlb/internal/market"
	"profitlb/internal/mpc"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

// Topology types (see internal/datacenter).
type (
	// System is the full topology: request classes, front-ends, centers.
	System = datacenter.System
	// DataCenter is one location of homogeneous servers.
	DataCenter = datacenter.DataCenter
	// FrontEnd is one request collector with per-center distances.
	FrontEnd = datacenter.FrontEnd
	// RequestClass is one service type: its TUF and transfer cost.
	RequestClass = datacenter.RequestClass
	// ServerGroup is one homogeneous slice of a heterogeneous center.
	ServerGroup = datacenter.ServerGroup
	// HeterogeneousCenter is a center made of several server groups.
	HeterogeneousCenter = datacenter.HeterogeneousCenter
)

// ExpandHeterogeneous flattens heterogeneous data centers into co-located
// homogeneous server groups, the paper's suggested extension to
// heterogeneous servers.
func ExpandHeterogeneous(classes []RequestClass, frontEnds []FrontEnd, centers []HeterogeneousCenter, slotHours float64) (*System, error) {
	return datacenter.ExpandHeterogeneous(classes, frontEnds, centers, slotHours)
}

// Time-utility-function types (see internal/tuf).
type (
	// TUF is a multi-level step-downward time utility function.
	TUF = tuf.StepDownward
	// TUFLevel is one step: a utility earned up to a sub-deadline.
	TUFLevel = tuf.Level
	// TUFConstraintSeries is the paper's big-M encoding of a step TUF.
	TUFConstraintSeries = tuf.ConstraintSeries
)

// Planning types (see internal/core).
type (
	// Planner produces a dispatch/allocation Plan for one slot.
	Planner = core.Planner
	// Plan is a slot decision: rates, shares, powered-on servers.
	Plan = core.Plan
	// Input is the per-slot planner input.
	Input = core.Input
	// Optimized is the paper's profit-aware planner.
	Optimized = core.Optimized
	// LevelSearch is the discrete MINLP-style comparator planner.
	LevelSearch = core.LevelSearch
)

// Workload and market types.
type (
	// Trace is an arrival-rate matrix for one front-end.
	Trace = workload.Trace
	// PriceTrace is an hourly electricity price series for one location.
	PriceTrace = market.PriceTrace
)

// Simulation types (see internal/sim).
type (
	// SimConfig configures a time-slotted simulation.
	SimConfig = sim.Config
	// Report is the accounted outcome of a simulation run.
	Report = sim.Report
	// SlotReport is one slot's dollar flows.
	SlotReport = sim.SlotReport
)

// Experiment is one registered reproduction of a paper table or figure.
type Experiment = exp.Experiment

// ExperimentResult is a rendered experiment outcome.
type ExperimentResult = exp.Result

// NewTUF builds a validated multi-level step-downward TUF.
func NewTUF(levels ...TUFLevel) (*TUF, error) { return tuf.New(levels) }

// ConstantTUF builds the one-level TUF: utility u before deadline d.
func ConstantTUF(u, d float64) (*TUF, error) { return tuf.Constant(u, d) }

// MustTUF is NewTUF for statically known level sets; it panics on error.
func MustTUF(levels ...TUFLevel) *TUF { return tuf.MustNew(levels) }

// NewTUFConstraintSeries builds the paper's big-M constraint series
// (Eqs. 11–26) for a step TUF. Pass m <= 0 to derive the minimal
// sufficient constant for delays up to horizon, and delta <= 0 for the
// default δ.
func NewTUFConstraintSeries(t *TUF, m, delta, horizon float64) *TUFConstraintSeries {
	return tuf.NewConstraintSeries(t, m, delta, horizon)
}

// NewOptimized returns the paper's Optimized planner with its defaults
// (aggregated LP, subset refinement and server consolidation on).
func NewOptimized() *Optimized { return core.NewOptimized() }

// NewLevelSearch returns the discrete level-commitment planner.
func NewLevelSearch() *LevelSearch { return core.NewLevelSearch() }

// NewBalanced returns the paper's static price-ordered baseline.
func NewBalanced() Planner { return baseline.NewBalanced() }

// NewNearest returns the nearest-center-first ablation baseline.
func NewNearest() Planner { return baseline.NewNearest() }

// NewGreedyProfit returns the myopic unit-profit ablation baseline.
func NewGreedyProfit() Planner { return baseline.NewGreedyProfit() }

// NewRandomBaseline returns the seeded random-order ablation baseline.
func NewRandomBaseline(seed int64) Planner { return baseline.NewRandom(seed) }

// VerifyPlan checks a plan against the physical invariants (arrival
// budgets, CPU shares, server counts, level deadlines).
func VerifyPlan(in *Input, p *Plan, tol float64) error { return core.Verify(in, p, tol) }

// Simulate runs the time-slotted evaluation loop under one planner.
func Simulate(cfg SimConfig, p Planner) (*Report, error) { return sim.Run(cfg, p) }

// CompareApproaches runs several planners over the same configuration.
func CompareApproaches(cfg SimConfig, planners ...Planner) ([]*Report, error) {
	return sim.Compare(cfg, planners...)
}

// Electricity price constructors.

// Houston returns the embedded Houston, TX price trace stand-in (Fig. 1).
func Houston() *PriceTrace { return market.Houston() }

// MountainView returns the Mountain View, CA stand-in (Fig. 1).
func MountainView() *PriceTrace { return market.MountainView() }

// Atlanta returns the Atlanta, GA stand-in (Fig. 1).
func Atlanta() *PriceTrace { return market.Atlanta() }

// SyntheticPrices generates a seeded diurnal price trace.
func SyntheticPrices(cfg market.SyntheticConfig) *PriceTrace { return market.Synthetic(cfg) }

// PriceConfig parameterizes SyntheticPrices.
type PriceConfig = market.SyntheticConfig

// Workload constructors.

// ConstantTrace builds a trace with fixed per-type rates in every slot.
func ConstantTrace(name string, rates []float64, slots int) *Trace {
	return workload.Constant(name, rates, slots)
}

// WorldCupLike generates the diurnal flash-crowd series of the paper's
// Section VI workload (stand-in for the 1998 World Cup logs).
func WorldCupLike(cfg workload.WorldCupConfig) []float64 { return workload.WorldCupLike(cfg) }

// WorldCupConfig parameterizes WorldCupLike.
type WorldCupConfig = workload.WorldCupConfig

// GoogleLike generates the short bursty series of the paper's Section VII
// workload (stand-in for the 2010 Google cluster trace).
func GoogleLike(cfg workload.GoogleConfig) []float64 { return workload.GoogleLike(cfg) }

// GoogleConfig parameterizes GoogleLike.
type GoogleConfig = workload.GoogleConfig

// ShiftTypes derives a multi-type trace from one base series by time
// shifting, as the paper does.
func ShiftTypes(name string, base []float64, types, shift int) *Trace {
	return workload.ShiftTypes(name, base, types, shift)
}

// Forecasting (the paper's optional prediction substrate).

// PredictTrace produces one-slot-ahead Kalman predictions for a trace.
func PredictTrace(tr *Trace, processVar, measureVar float64) (*Trace, error) {
	return forecast.PredictTrace(tr, processVar, measureVar)
}

// Sensitivity is the shadow-price report of the slot LP (see
// (*Optimized).Sensitivity): the marginal dollar value of CPU share per
// center and of extra demand per front-end and type.
type Sensitivity = core.Sensitivity

// Scenario is a JSON-serializable simulation description (topology,
// traces, prices, horizon, planner) for file-driven runs.
type Scenario = config.Scenario

// LoadScenario decodes and validates a scenario from JSON.
func LoadScenario(r io.Reader) (*Scenario, error) { return config.Load(r) }

// ExampleScenario returns a small runnable scenario, the starting point
// for hand-written configuration files (`profitlb scaffold`).
func ExampleScenario() *Scenario { return config.Example() }

// RequestLevelReport is the outcome of a request-level (discrete-event)
// realization of the planner's decisions.
type RequestLevelReport = des.Report

// SimulateRequests realizes every slot's plan request by request: Poisson
// arrivals, exponential service, per-request TUF billing. It is the
// empirical counterpart of Simulate's fluid accounting.
func SimulateRequests(cfg SimConfig, p Planner, seed int64) (*RequestLevelReport, error) {
	return des.Run(des.Config{Sim: cfg, Planner: p, Seed: seed})
}

// Multi-slot lookahead types (the temporal-arbitrage extension).
type (
	// HorizonInput is a multi-slot planning window with per-class
	// deferral allowances.
	HorizonInput = core.HorizonInput
	// HorizonPlan is the joint multi-slot decision.
	HorizonPlan = core.HorizonPlan
)

// PlanHorizon solves the joint LP over a window of slots, letting
// deferrable classes wait for cheap-electricity hours — the temporal
// freedom the paper's per-slot optimization cannot exploit.
func PlanHorizon(h *HorizonInput) (*HorizonPlan, error) {
	return core.PlanHorizon(h, lp.Options{})
}

// VerifyHorizon checks the physical invariants of a horizon plan.
func VerifyHorizon(h *HorizonInput, hp *HorizonPlan, tol float64) error {
	return core.VerifyHorizon(h, hp, tol)
}

// Rolling-horizon MPC planning: the online counterpart of PlanHorizon.
// Where PlanHorizon needs the whole window's arrivals and prices up
// front (clairvoyant), the MPC planner forecasts them each slot, solves
// the joint horizon LP, commits only the first slot's decision and rolls
// forward, buffering unserved deferrable work in a deadline-aware
// backlog. Plug it into Simulate like any other Planner.
type (
	// MPCConfig parameterizes the receding-horizon planner: window
	// length, per-class deferral allowances (slots each class may wait)
	// and the slot the run ends at.
	MPCConfig = mpc.Config
	// MPCPlanner is the rolling-horizon planner with its deferrable
	// backlog. It implements Planner.
	MPCPlanner = mpc.Planner
	// DeferralLedger is one slot's backlog settlement record (carried,
	// drained, forced, shed, newly deferred volumes per class); see
	// SlotReport.Backlog and Report.DeferralTotals.
	DeferralLedger = core.BacklogSlot
)

// NewMPC returns the receding-horizon MPC planner for cfg (a zero
// Horizon means 4).
func NewMPC(cfg MPCConfig) *MPCPlanner { return mpc.New(cfg) }

// Fault injection and resilient planning (DESIGN.md §6).
type (
	// FaultSchedule is a replayable set of timed fault events: center
	// outages/degradations, price spikes/blackouts, arrival-trace
	// drops/corruptions, planner timeout/error/panic.
	FaultSchedule = fault.Schedule
	// FaultEvent is one timed fault (inclusive slot range).
	FaultEvent = fault.Event
	// FaultInjector wraps a planner so the schedule's planner faults fire
	// at their slots.
	FaultInjector = fault.Injector
	// ResilientChain is an ordered planner fallback ladder with per-tier
	// deadlines, panic recovery and feasibility gating.
	ResilientChain = resilient.Chain
	// StormConfig parameterizes the seeded random storm generator.
	StormConfig = fault.StormConfig
)

// Storm draws a reproducible random fault schedule from a seed.
func Storm(cfg StormConfig) (*FaultSchedule, error) { return fault.Storm(cfg) }

// Resilient wraps a planner in the default degradation ladder:
// planner → greedy level-search → balanced → last-plan replay → shed.
func Resilient(primary Planner) *ResilientChain { return resilient.Wrap(primary) }

// Experiments returns every registered paper-artifact reproduction.
func Experiments() []*Experiment { return exp.All() }

// ExperimentByID looks up one experiment (e.g. "fig6").
func ExperimentByID(id string) (*Experiment, bool) { return exp.Get(id) }
