// Package mpc implements a rolling-horizon (model-predictive) planning
// plane over the paper's slot optimization. Where the paper's planner is
// slot-myopic — every request is dispatched, or lost, in the slot it
// arrives — the MPC planner treats each slot as the first of an H-slot
// window: it takes the remaining H−1 slots' arrivals and prices from the
// attached forecast source (the run's feed layer, attached by
// sim.InputSource.Attach), solves the joint horizon LP (core.PlanHorizon's
// formulation, warm-started across windows), commits only slot 0's
// dispatch, and rolls forward.
//
// What makes the window worth solving is deferrable work: classes whose
// contract allows buffering for up to MaxDefer slots before dispatch.
// Work the LP chooses not to serve now enters a deadline-aware backlog —
// per-(front-end, class) aging buckets, where bucket r must be served
// within r further slots — and re-enters every subsequent window as
// carried backlog until it is served, force-dispatched at its deadline,
// or shed. During a price spike the LP sees cheaper forecast slots ahead
// and holds deferrable work back; the valleys drain the buffer. The
// controller enforces what the LP only prefers: buckets reaching r=0 are
// force-drained into whatever capacity remains, and only work that
// physically cannot fit is shed (a deadline miss, billed as lost revenue).
//
// The planner is a core.DeferralPlanner; hosts (internal/sim,
// internal/resilient) drive the settlement hook CommitSlot exactly once
// per slot and verify committed plans against arrivals plus the backlog
// budget. Like every stateful planner it has one caller at a time.
package mpc

import "fmt"

// Config is what a run chooses about the rolling-horizon controller: the
// window, each class's deferral allowance, and where the run ends.
type Config struct {
	// Horizon is the window length H in slots. 1 disables lookahead — a
	// one-slot window cannot see the future, so deferral is pointless and
	// the planner reduces exactly to the myopic optimizer.
	Horizon int `json:"horizon,omitempty"`
	// MaxDefer[k] is how many whole slots class k may be buffered before
	// dispatch (0 = the paper's must-serve-on-arrival). Nil means all
	// zeros, which also reduces the planner to the myopic optimizer.
	MaxDefer []int `json:"maxDefer,omitempty"`
	// EndSlot, when positive, is the first absolute slot past the run:
	// planning windows truncate at it and nothing is deferred beyond it,
	// so work that could only run after the end is lost immediately
	// instead of stranded in the buffer.
	EndSlot int `json:"endSlot,omitempty"`
}

// priceHedge is the robustness hedge on forecast prices: horizon assembly
// inflates every future slot's price by (1+priceHedge), so the LP only
// withholds profitable work for later when the predicted saving is large
// enough to survive forecast error. Without it a lagging forecast
// under-predicts prices on every upward ramp and the planner defers work
// straight into the peak. Passively-unserved work (unprofitable or
// capacity-starved now) still enters the backlog regardless — the hedge
// gates active withholding only.
const priceHedge = 0.2

// WithDefaults fills an unset Horizon (4).
func (c Config) WithDefaults() Config {
	if c.Horizon == 0 {
		c.Horizon = 4
	}
	return c
}

// Validate checks the configuration; K is the number of request classes
// (pass a negative K to skip the dimension check).
func (c Config) Validate(K int) error {
	if c.Horizon < 1 {
		return fmt.Errorf("mpc: horizon %d, want >= 1", c.Horizon)
	}
	if c.EndSlot < 0 {
		return fmt.Errorf("mpc: negative end slot %d", c.EndSlot)
	}
	if K >= 0 && c.MaxDefer != nil && len(c.MaxDefer) != K {
		return fmt.Errorf("mpc: maxDefer has %d entries, want %d", len(c.MaxDefer), K)
	}
	for k, d := range c.MaxDefer {
		if d < 0 {
			return fmt.Errorf("mpc: maxDefer[%d] negative", k)
		}
	}
	return nil
}

// maxDefer returns class k's deferral allowance (0 beyond the slice).
func (c *Config) maxDefer(k int) int {
	if k < len(c.MaxDefer) {
		return c.MaxDefer[k]
	}
	return 0
}

// myopicOnly reports whether the configuration reduces to the slot-myopic
// planner: no lookahead, or no class allowed to defer.
func (c *Config) myopicOnly() bool {
	if c.Horizon == 1 {
		return true
	}
	for _, d := range c.MaxDefer {
		if d > 0 {
			return false
		}
	}
	return true
}
