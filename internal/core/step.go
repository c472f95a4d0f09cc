package core

import (
	"fmt"
	"time"
)

const (
	// VerifyTol is the feasibility tolerance every slot commit is gated
	// at: three orders above the LP's zero, for the plan's own round-off.
	VerifyTol = 1e-6
	// RateEps is the LP's zero on the rates it returns: below it a
	// commodity carries no load, here and in every plane downstream.
	RateEps = 1e-9
	// DeadlineSnap is the relative overshoot that still meets a deadline.
	DeadlineSnap = 1e-9
	// reserveSlack is the round-off of re-summing a swap's reservations
	// (a share sum, so not improveTol, which compares dollars).
	reserveSlack = 1e-9
)

// FallbackReporter is implemented by resilient planner wrappers (see
// internal/resilient) that can report which fallback tier produced the
// last committed plan, and hand over the receipt for its feasibility gate.
type FallbackReporter interface {
	FallbackState() (tier int, tierName string, degraded bool)
	// VerifiedPlan is the receipt: the plan the last Plan call returned
	// after it passed Verify at VerifyTol against the Input Plan was
	// handed, widened by the deferral budget (RelaxArrivals); nil when
	// the wrapper gates nothing. Step does not check that plan again.
	VerifiedPlan() *Plan
}

// SlotCommit is what one slot boundary committed.
type SlotCommit struct {
	// Plan is the committed plan: the planner's, scaled onto the actual
	// arrivals when its view was distorted, or the empty all-shed plan
	// when the slot failed.
	Plan *Plan
	// Err is why the slot failed — planner error or panic, or a plan
	// that is infeasible before or after reconciliation; nil otherwise.
	Err error
	// Tier, TierName and Degraded are the planner's fallback state for
	// the commit: tier -1 when it reports none, "shed" and degraded on a
	// failed slot.
	Tier     int
	TierName string
	Degraded bool
	// Backlog is the slot's settled deferral ledger; nil for planners
	// that are not (and do not wrap) a DeferralPlanner.
	Backlog *BacklogSlot
	// PlanTime is the wall time spent inside the planner's Plan call.
	PlanTime time.Duration
}

// Step is the slot protocol, shared by every plane that commits plans
// (sim.Run, dispatch.Driver): plan once on the planner's view with a
// panic recovered into an error; verify against that view's
// arrivals widened by the backlog budget — backlog service is real work
// beyond the slot's own arrivals, and Plan never mutates the buckets, so
// the budget read here is the one the planner planned with — unless the
// planner's receipt (FallbackReporter) names that very plan; when the
// view is distorted, reconcile onto the actual arrivals and verify
// again; read the fallback state; and settle a deferring planner's
// ledger on the actual input exactly once — failed slots included, whose
// empty plan drains nothing and expires due work. A plane with no
// settlement truth at the boundary passes its view as actual.
func Step(p Planner, view, actual *Input, distorted bool) SlotCommit {
	dp, hasDefer := AsDeferral(p)
	start := time.Now()
	plan, err := safePlan(p, view)
	c := SlotCommit{Tier: -1, PlanTime: time.Since(start)}
	var budget [][]float64
	if hasDefer {
		budget = dp.BacklogBudget()
	}
	fr, reports := p.(FallbackReporter)
	if err == nil && !(reports && plan != nil && fr.VerifiedPlan() == plan) {
		if verr := Verify(RelaxArrivals(view, budget), plan, VerifyTol); verr != nil {
			err = fmt.Errorf("infeasible plan from %s: %w", p.Name(), verr)
		}
	}
	if err == nil && distorted {
		relaxed := RelaxArrivals(actual, budget)
		Reconcile(plan, relaxed.Arrivals)
		if verr := Verify(relaxed, plan, VerifyTol); verr != nil {
			err = fmt.Errorf("reconciled plan infeasible: %w", verr)
		}
	}
	if err != nil {
		c.Err, c.TierName, c.Degraded = err, "shed", true
		plan = NewPlan(actual.Sys)
	} else if reports {
		c.Tier, c.TierName, c.Degraded = fr.FallbackState()
	}
	if hasDefer {
		ledger := dp.CommitSlot(actual, plan)
		c.Backlog = &ledger
	}
	c.Plan = plan
	return c
}

// safePlan invokes the planner, recovering a panic into an error so one
// bad planner degrades its slot instead of crashing the run, a Compare
// fleet or a serving gateway.
func safePlan(p Planner, in *Input) (plan *Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			plan, err = nil, fmt.Errorf("planner %s panicked: %v", p.Name(), r)
		}
	}()
	return p.Plan(in)
}

// Reconcile scales a plan committed on a distorted view against actual
// arrivals: per (type, front-end), if fewer requests arrived than were
// committed the dispatch shrinks proportionally across levels and centers
// (shares keep their reservations, so delays only improve); arrivals
// beyond the committed volume are dropped. The plan is modified in place.
func Reconcile(plan *Plan, actual [][]float64) {
	for k := range plan.Rate {
		if len(plan.Rate[k]) == 0 {
			continue
		}
		for s := range plan.Rate[k][0] {
			committed := plan.ServedFrom(k, s)
			a := actual[s][k]
			if committed <= 0 || a >= committed {
				continue // nothing committed, or every committed request arrived
			}
			f := a / committed
			for q := range plan.Rate[k] {
				for l := range plan.Rate[k][q][s] {
					plan.Rate[k][q][s][l] *= f
				}
			}
		}
	}
}
