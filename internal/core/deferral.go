package core

// This file defines the contracts between a deadline-aware deferring
// planner (internal/mpc) and the layers that host one: the slot protocol
// (Step), the resilient fallback chain and the fault injector. They
// live in core — not in mpc — so those layers can stay ignorant of the
// concrete controller: everything here is plain data plus small
// structural interfaces over core types.

// BacklogSlot is one slot's deferral ledger for a deferring planner,
// per request class. All volumes are rates (requests/s, like Arrivals
// and Plan rates); multiply by the slot length T for request counts.
// The per-class conservation identity holds slot by slot:
//
//	arrivals = servedNew + deferredNew + lostNew
//	backlogOut = carriedIn − drained − shed + deferredNew
//
// where servedNew = served − drained (the planner attributes served
// volume to the oldest buffered work first; work within a class is
// fungible, so the attribution is pure bookkeeping).
type BacklogSlot struct {
	// CarriedIn[k] is the backlog carried into the slot.
	CarriedIn []float64
	// Drained[k] is the carried backlog served this slot.
	Drained []float64
	// Forced[k] is the part of the slot's service that the controller
	// force-dispatched to meet a bucket deadline the LP had left unserved
	// (diagnostic; included in the plan's rates like any service).
	Forced []float64
	// Shed[k] is due backlog dropped because no capacity could host it —
	// a deadline miss, billed to LostRevenue at the class's max utility.
	Shed []float64
	// DeferredNew[k] is the slot's unserved arrivals pushed into the
	// backlog (classes with a deferral allowance only).
	DeferredNew []float64
	// LostNew[k] is the slot's unserved arrivals of classes with no
	// deferral allowance (or past the run's end), gone for good.
	LostNew []float64
	// BacklogOut[k] is the backlog carried out of the slot.
	BacklogOut []float64
}

// Total sums a per-class volume vector.
func Total(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// DeferralPlanner is a planner that buffers deferrable work across slots
// (internal/mpc). Beyond Plan, the host must drive the settlement hook:
// CommitSlot exactly once per slot after the committed plan is final —
// including shed slots, with an empty plan — or the backlog never ages
// and due work never expires. Step does, for every plane. Like every stateful planner, a single
// goroutine drives it.
type DeferralPlanner interface {
	Planner
	// BacklogBudget returns the current backlog volume per [frontEnd][type]
	// (a fresh copy). A host verifying or reconciling a committed plan must
	// allow dispatch up to arrivals + budget — backlog service is real work
	// beyond the slot's own arrivals.
	BacklogBudget() [][]float64
	// CommitSlot reconciles planned-versus-realized service against the
	// actual arrivals, ages the buckets, expires due work and returns the
	// slot's ledger.
	CommitSlot(actual *Input, committed *Plan) BacklogSlot
	// ForceDrain augments a committed plan in place so buckets that would
	// expire this slot are dispatched wherever capacity remains, returning
	// the volume placed. Hosts that commit a plan the planner did not
	// produce (a fallback tier, a replay) call it so a degraded slot still
	// honors deadlines; work that still does not fit is shed by CommitSlot.
	ForceDrain(in *Input, committed *Plan) float64
}

// ForecastSource supplies multi-step forecasts for horizon assembly:
// prices[i-1][l] and arrivals[i-1][s][k] estimate slot now+i, for i in
// [1, h]. The telemetry feed layer (feed.Set) implements it over its
// per-feed estimator ladder; a deferring planner with no source attached
// cannot plan past the current slot.
type ForecastSource interface {
	ForecastHorizon(h int) (prices [][]float64, arrivals [][][]float64)
}

// AsDeferral unwraps a planner to its DeferralPlanner, traversing any
// chain of wrappers that expose Unwrap() Planner (the fault injector,
// the resilient chain). It returns false for plain slot-myopic planners.
func AsDeferral(p Planner) (DeferralPlanner, bool) {
	for p != nil {
		if dp, ok := p.(DeferralPlanner); ok {
			return dp, true
		}
		u, ok := p.(interface{ Unwrap() Planner })
		if !ok {
			return nil, false
		}
		p = u.Unwrap()
	}
	return nil, false
}

// RelaxArrivals returns a copy of the input whose per-(front-end, type)
// arrival budgets include the backlog budget: a deferring planner's
// committed plan legitimately dispatches buffered work beyond the slot's
// own arrivals, and hosts must verify (and reconcile) it against the
// widened budget. A nil budget returns the input unchanged.
func RelaxArrivals(in *Input, budget [][]float64) *Input {
	if budget == nil {
		return in
	}
	out := *in
	out.Arrivals = make([][]float64, len(in.Arrivals))
	for s := range in.Arrivals {
		out.Arrivals[s] = append([]float64(nil), in.Arrivals[s]...)
		if s < len(budget) {
			for k := range out.Arrivals[s] {
				if k < len(budget[s]) {
					out.Arrivals[s][k] += budget[s][k]
				}
			}
		}
	}
	return &out
}

// PlanObjective evaluates the slot objective (paper Eq. 5) of a plan
// against an input — the exported face of planObjective, for planners
// outside this package that assemble or augment plans directly.
func PlanObjective(in *Input, p *Plan) float64 {
	var r routePass
	r.price(in)
	return planObjective(in, p, &r)
}
