// Package resilient wraps any core.Planner in an ordered fallback chain
// with per-tier deadlines, panic recovery and feasibility gating, so that
// one failing solver cannot kill a simulation horizon. The default chain
// mirrors the degradation ladder a production dispatcher would use:
//
//	Optimized LP  →  greedy LevelSearch  →  Balanced baseline
//	→  replay of the last committed plan scaled to surviving capacity
//	→  shed everything (an empty, trivially feasible plan)
//
// Each tier is attempted in order; a tier is rejected if it times out,
// returns an error, panics, or emits a plan that fails core.Verify
// against the slot's (possibly fault-degraded) topology. The chain records
// a structured Decision for every slot — which tier fired, and why every
// earlier tier was rejected — which internal/sim surfaces per slot as
// FallbackTier / FallbackName in its reports.
package resilient

import (
	"fmt"
	"time"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/feed"
	"profitlb/internal/obs"
)

// Reason classifies why a tier was rejected.
type Reason string

// The rejection taxonomy, in the order the chain detects them.
const (
	// ReasonTimeout: the tier did not answer within the per-tier deadline.
	ReasonTimeout Reason = "timeout"
	// ReasonError: the tier returned an error.
	ReasonError Reason = "error"
	// ReasonPanic: the tier panicked (recovered by the chain).
	ReasonPanic Reason = "panic"
	// ReasonInfeasible: the tier's plan failed core.Verify.
	ReasonInfeasible Reason = "infeasible"
	// ReasonDegradedInputs: the tier was skipped without running because
	// the slot's telemetry feeds reported unusable inputs
	// (Chain.EscalateOnDegraded) — spending the expensive optimizer on
	// guesswork buys nothing over a cheap tier.
	ReasonDegradedInputs Reason = "degraded-inputs"
)

// Attempt records one tier invocation.
type Attempt struct {
	// Planner is the tier's name ("replay" for the last-plan tier).
	Planner string
	// Reason is empty when the attempt produced the committed plan.
	Reason Reason
	// Err carries the rejection detail.
	Err string
	// Elapsed is the tier's wall-clock planning time.
	Elapsed time.Duration
}

// Decision is the chain's structured record of one slot.
type Decision struct {
	// Slot is the absolute slot index (from core.Input.Slot).
	Slot int
	// Tier indexes the tier that produced the committed plan: 0..n-1 are
	// the configured planners, n is the last-plan replay, n+1 is the
	// shed-everything plan.
	Tier int
	// TierName is the committed tier's name ("replay" or "shed" for the
	// terminal tiers).
	TierName string
	// Degraded is true whenever any tier beyond the primary fired.
	Degraded bool
	// Attempts lists every tier tried this slot, in order.
	Attempts []Attempt
}

// Chain is a resilient planner. It implements core.Planner and, like
// every stateful planner in this codebase, must be driven by exactly one
// goroutine; sim.Compare callers pass one instance per lane.
type Chain struct {
	// Tiers are tried in order. Must be non-empty.
	Tiers []core.Planner
	// Timeout is the per-tier planning deadline; zero disables it. A tier
	// that overruns keeps computing in its goroutine but its eventual
	// answer is discarded.
	Timeout time.Duration
	// EscalateOnDegraded skips the primary tier on slots whose telemetry
	// feeds report unusable inputs (some feed fell all the way to its
	// prior — see feed.SlotHealth.Unusable). The slot's health arrives
	// via ObserveFeedHealth and applies to the next Plan call only.
	EscalateOnDegraded bool
	// Obs, when non-nil, streams every rejected tier (one escalation
	// event per rejection, counted by reason) and every commit (one
	// tier-commit event, counted by tier name) into the observability
	// layer. The scope only watches; decisions are identical with or
	// without it.
	Obs *obs.Scope

	last        *core.Plan
	dec         Decision
	inputHealth *feed.SlotHealth
}

// New builds a chain over the given tiers.
func New(tiers ...core.Planner) *Chain { return &Chain{Tiers: tiers} }

// Wrap builds the default degradation ladder under the given primary
// planner: primary → greedy LevelSearch → Balanced (tiers already equal to
// the primary are not duplicated). A nil primary means core.NewOptimized.
func Wrap(primary core.Planner) *Chain {
	if primary == nil {
		primary = core.NewOptimized()
	}
	ls := core.NewLevelSearch()
	ls.Strategy = core.Greedy
	tiers := []core.Planner{primary}
	for _, t := range []core.Planner{ls, baseline.NewBalanced()} {
		if t.Name() != primary.Name() {
			tiers = append(tiers, t)
		}
	}
	return New(tiers...)
}

// Name implements core.Planner.
func (c *Chain) Name() string {
	if len(c.Tiers) == 0 {
		return "resilient/empty"
	}
	return "resilient/" + c.Tiers[0].Name()
}

// LastDecision returns the structured record of the most recent slot.
func (c *Chain) LastDecision() Decision { return c.dec }

// Unwrap exposes the primary tier, so hosts can discover capabilities of
// the wrapped planner (core.AsDeferral, forecast attachment) through the
// chain.
func (c *Chain) Unwrap() core.Planner {
	if len(c.Tiers) == 0 {
		return nil
	}
	return c.Tiers[0]
}

// FallbackState implements core.FallbackReporter.
func (c *Chain) FallbackState() (tier int, tierName string, degraded bool) {
	return c.dec.Tier, c.dec.TierName, c.dec.Degraded
}

// ObserveFeedHealth implements feed.HealthObserver: the host hands over
// the slot's feed health before asking for the plan. The health is
// consumed by the next Plan call.
func (c *Chain) ObserveFeedHealth(h *feed.SlotHealth) { c.inputHealth = h }

// Plan implements core.Planner. It only errors on invalid input or an
// empty chain; any tier failure falls through to the next tier, ending at
// the always-feasible shed plan, so a valid slot always commits.
func (c *Chain) Plan(in *core.Input) (*core.Plan, error) {
	if len(c.Tiers) == 0 {
		return nil, fmt.Errorf("resilient: chain has no tiers")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	dec := Decision{Slot: in.Slot, Tier: -1}
	// A deferring primary (internal/mpc) changes two things about the
	// chain: committed plans are feasibility-gated against the slot's
	// arrivals plus the backlog budget (backlog service is real work
	// beyond the arrivals), and any commit the deferral planner did not
	// produce itself — a fallback tier, a replay, the shed plan — gets a
	// force-drain pass so buckets due this slot still meet their
	// deadlines on a degraded slot.
	dp, hasDefer := core.AsDeferral(c.Tiers[0])
	vIn := in
	if hasDefer {
		vIn = core.RelaxArrivals(in, dp.BacklogBudget())
	}
	commit := func(plan *core.Plan, tier int, name string) *core.Plan {
		if hasDefer && tier > 0 {
			dp.ForceDrain(in, plan)
		}
		dec.Tier, dec.TierName, dec.Degraded = tier, name, tier > 0
		c.dec = dec
		if c.Obs.Enabled() {
			c.Obs.Counter("resilient_commits_total", obs.L("tier", name)).Add(1)
			c.Obs.Emit(obs.Event{Kind: obs.KindTierCommit, Slot: in.Slot,
				Planner: c.Name(), Tier: tier, TierName: name})
		}
		// The replay tier only learns plans that actually dispatch
		// traffic. Recording the shed plan (or any other zero-dispatch
		// commit) here would overwrite the last useful plan with
		// emptiness, leaving replay nothing to offer on the next failed
		// slot even though a perfectly serviceable plan had been
		// committed earlier in the horizon.
		if planDispatches(plan) {
			c.last = plan.Clone()
		}
		return plan
	}
	start := 0
	if c.EscalateOnDegraded && c.inputHealth != nil && c.inputHealth.Unusable() && len(c.Tiers) > 1 {
		at := Attempt{
			Planner: c.Tiers[0].Name(), Reason: ReasonDegradedInputs,
			Err: "feeds report unusable inputs; escalating past primary tier",
		}
		dec.Attempts = append(dec.Attempts, at)
		c.observeReject(in.Slot, 0, at)
		start = 1
	}
	c.inputHealth = nil
	for i := start; i < len(c.Tiers); i++ {
		p := c.Tiers[i]
		plan, at := c.attempt(p, in, vIn)
		dec.Attempts = append(dec.Attempts, at)
		if plan != nil {
			return commit(plan, i, p.Name()), nil
		}
		c.observeReject(in.Slot, i, at)
	}
	n := len(c.Tiers)
	plan, at := c.replay(in, vIn)
	dec.Attempts = append(dec.Attempts, at)
	if plan != nil {
		return commit(plan, n, "replay"), nil
	}
	c.observeReject(in.Slot, n, at)
	return commit(core.NewPlan(in.Sys), n+1, "shed"), nil
}

// observeReject publishes one rejected tier attempt as an escalation
// event plus a by-reason counter. Nil-safe; no-op without a scope.
func (c *Chain) observeReject(slot, tier int, at Attempt) {
	if !c.Obs.Enabled() {
		return
	}
	c.Obs.Counter("resilient_escalations_total", obs.L("reason", string(at.Reason))).Add(1)
	c.Obs.Emit(obs.Event{Kind: obs.KindEscalation, Slot: slot, Planner: at.Planner,
		Tier: tier, Reason: string(at.Reason), Err: at.Err,
		Values: map[string]float64{"elapsedMs": float64(at.Elapsed) / float64(time.Millisecond)}})
}

// planDispatches reports whether the plan serves any traffic at all.
func planDispatches(p *core.Plan) bool {
	for k := range p.Rate {
		for q := range p.Rate[k] {
			for s := range p.Rate[k][q] {
				for _, v := range p.Rate[k][q][s] {
					if v > 0 {
						return true
					}
				}
			}
		}
	}
	return false
}

// attempt runs one tier under the deadline with panic recovery, and
// feasibility-gates its plan against vIn (the slot input, with the
// arrival budgets relaxed by the backlog budget when the primary tier is
// a deferring planner). A nil plan means rejection.
func (c *Chain) attempt(p core.Planner, in, vIn *core.Input) (*core.Plan, Attempt) {
	start := time.Now()
	type outcome struct {
		plan     *core.Plan
		err      error
		panicked any
	}
	invoke := func() (o outcome) {
		defer func() {
			if r := recover(); r != nil {
				o.panicked = r
			}
		}()
		o.plan, o.err = p.Plan(in)
		return o
	}
	var o outcome
	if c.Timeout > 0 {
		done := make(chan outcome, 1)
		go func() { done <- invoke() }()
		select {
		case o = <-done:
		case <-time.After(c.Timeout):
			return nil, Attempt{
				Planner: p.Name(), Reason: ReasonTimeout,
				Err:     fmt.Sprintf("no plan within %s", c.Timeout),
				Elapsed: time.Since(start),
			}
		}
	} else {
		o = invoke()
	}
	at := Attempt{Planner: p.Name(), Elapsed: time.Since(start)}
	switch {
	case o.panicked != nil:
		at.Reason, at.Err = ReasonPanic, fmt.Sprint(o.panicked)
	case o.err != nil:
		at.Reason, at.Err = ReasonError, o.err.Error()
	default:
		if err := core.Verify(vIn, o.plan, core.VerifyTol); err != nil {
			at.Reason, at.Err = ReasonInfeasible, err.Error()
			return nil, at
		}
		return o.plan, at
	}
	return nil, at
}

// replay adapts the last committed plan to the slot: powered-on counts
// are capped to the surviving fleet and the capped centers' rates shrink
// proportionally (per-server load, and therefore every delay, never
// rises), then dispatch is capped to the slot's arrival budget per
// (type, front-end). The result is feasibility-gated like any tier.
func (c *Chain) replay(in, vIn *core.Input) (*core.Plan, Attempt) {
	at := Attempt{Planner: "replay"}
	if c.last == nil {
		at.Reason, at.Err = ReasonError, "no committed plan to replay"
		return nil, at
	}
	p := c.last.Clone()
	if len(p.ServersOn) != in.Sys.L() || len(p.Rate) != in.Sys.K() {
		at.Reason, at.Err = ReasonError, "last plan has a different topology shape"
		return nil, at
	}
	for l := range p.ServersOn {
		limit := in.Sys.Centers[l].Servers
		if p.ServersOn[l] <= limit {
			continue
		}
		f := float64(limit) / float64(p.ServersOn[l])
		for k := range p.Rate {
			for q := range p.Rate[k] {
				for s := range p.Rate[k][q] {
					p.Rate[k][q][s][l] *= f
				}
			}
		}
		p.ServersOn[l] = limit
	}
	core.Reconcile(p, in.Arrivals)
	// The replayed plan was optimized for a different slot; its objective
	// is unknown until the simulator accounts it.
	p.Objective = 0
	if err := core.Verify(vIn, p, core.VerifyTol); err != nil {
		at.Reason, at.Err = ReasonInfeasible, err.Error()
		return nil, at
	}
	return p, at
}
