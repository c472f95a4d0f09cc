package dispatch

import (
	"fmt"
	"math"
)

// shardBurstSigmas floors a subdivided lane's burst at this many standard
// deviations of its slot budget (σ = √(λ·T) for a Poisson slice), so thin
// per-replica shares do not shed on ordinary clumping.
const shardBurstSigmas = 6

// Subdivide splits the fleet-wide table into replica idx's share of an
// n-replica fleet: every lane's planned rate λ becomes the telescoping
// share λ·(idx+1)/n − λ·idx/n, so the n shares sum to exactly λ with the
// floating-point remainder spread across replicas — no replica needs a
// global lock or a view of its peers to admit its slice of the budget.
// Token-bucket capacities are re-derived from the share with a √n slack
// factor, and floored at both cfg.MinBurst and shardBurstSigmas standard
// deviations of the share's slot budget: a replica's slice of a Poisson
// stream fluctuates with the square root of its share, not linearly, so
// a linearly-scaled burst would shed traffic the fleet-wide plan admits,
// and a thin share's burst must cover its clumping outright. The fleet's
// aggregate burst therefore exceeds the undivided table's, which only
// ever errs permissive. Every lane moves by one factor, so the alias tables
// stay the parent's (derive); each replica's draw seed is re-mixed with
// (idx, n) so replicas walk independent routing sequences. Objective, idle
// cost and per-stream budgets scale by the share fraction so per-replica
// accounting sums back to the plan.
//
// A fleet of one gets the table itself: its share is the whole plan, it has
// no peer to decorrelate its draws from, and no slice is thin enough to
// need the σ floor — so a lone gateway serves exactly what was compiled.
func (t *Table) Subdivide(idx, n int, cfg Config) (*Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dispatch: subdivide into %d replicas", n)
	}
	if idx < 0 || idx >= n {
		return nil, fmt.Errorf("dispatch: replica index %d outside fleet of %d", idx, n)
	}
	if n == 1 {
		return t, nil
	}
	cfg = cfg.WithDefaults()
	lo := float64(idx) / float64(n)
	hi := float64(idx+1) / float64(n)
	share := hi - lo
	slack := math.Sqrt(float64(n))
	sub := t.derive(func(_ int, ln *Lane) {
		// MaxRate telescopes exactly like Rate, so the per-replica headroom
		// shares sum back to the fleet-wide headroom.
		ln.Rate = ln.Rate*hi - ln.Rate*lo
		ln.MaxRate = ln.MaxRate*hi - ln.MaxRate*lo
		budget := ln.Rate * t.SlotLen
		ln.Burst = math.Max(cfg.burst(budget, slack), shardBurstSigmas*math.Sqrt(budget))
	}, func(e *entry) {
		e.planned = e.planned*hi - e.planned*lo
		e.arrival *= share
		e.seed = splitmix64(e.seed ^ (uint64(idx)+1)*0x9e3779b97f4a7c15 ^ uint64(n)<<32)
	})
	sub.Objective *= share
	sub.IdleCost *= share
	return sub, nil
}

// Scale returns a copy of the table with every lane's admission rate (and
// bucket capacity) multiplied by factor, routing distribution unchanged.
// It is the conservative-shed transform a replica applies when its plan
// goes stale past the cluster TTL: the last good epoch keeps serving, at
// a fraction of its budget. The result is marked Degraded with the given
// tier name.
func (t *Table) Scale(factor float64, tier string, cfg Config) *Table {
	if factor < 0 {
		factor = 0
	}
	cfg = cfg.WithDefaults()
	out := t.derive(func(_ int, ln *Lane) {
		ln.Rate *= factor
		ln.MaxRate *= factor
		ln.Burst = cfg.burst(ln.Rate, t.SlotLen)
	}, func(e *entry) { e.planned *= factor })
	out.Degraded, out.Tier = true, tier
	out.Objective *= factor
	return out
}
