// Package baseline implements the static dispatchers the paper's
// "Optimized" approach is evaluated against.
//
// The primary comparator is Balanced (paper Section V-A): CPU shares are
// split evenly across the K request types on every server, and each
// front-end fills data centers in ascending order of current electricity
// price, moving to the next center once one is saturated. Additional
// ordering policies (nearest-first, best-unit-profit-first, seeded random)
// are provided for ablations; they reuse the same fill mechanics and
// differ only in how each front-end ranks the centers.
package baseline

import (
	"fmt"
	"math/rand"
	"sort"

	"profitlb/internal/core"
)

// Order ranks data centers for one front-end in one slot. It returns the
// indices of the centers in visit order.
type Order func(in *core.Input, s int) []int

// Dispatcher is a static planner: even shares, ordered fill, no
// optimization. The zero value is unusable; use the constructors.
type Dispatcher struct {
	name  string
	order Order
}

// Name implements core.Planner.
func (d *Dispatcher) Name() string { return d.name }

// NewBalanced returns the paper's Balanced baseline: centers are visited
// in ascending electricity-price order.
func NewBalanced() *Dispatcher {
	return &Dispatcher{name: "balanced", order: func(in *core.Input, s int) []int {
		return sortedBy(in.Sys.L(), func(a, b int) bool { return in.Prices[a] < in.Prices[b] })
	}}
}

// NewNearest returns the distance-greedy ablation: each front-end fills
// its nearest center first.
func NewNearest() *Dispatcher {
	return &Dispatcher{name: "nearest", order: func(in *core.Input, s int) []int {
		d := in.Sys.FrontEnds[s].DistanceMiles
		return sortedBy(in.Sys.L(), func(a, b int) bool { return d[a] < d[b] })
	}}
}

// NewRandom returns a seeded random-order ablation. The order is drawn
// per front-end per call, deterministically in the seed.
func NewRandom(seed int64) *Dispatcher {
	rng := rand.New(rand.NewSource(seed))
	return &Dispatcher{name: "random", order: func(in *core.Input, s int) []int {
		idx := sortedBy(in.Sys.L(), func(a, b int) bool { return a < b })
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		return idx
	}}
}

// NewGreedyProfit returns the myopic unit-profit ablation: each front-end
// ranks centers by the per-request profit of the first (best) TUF level,
// summed over its types, ignoring congestion.
func NewGreedyProfit() *Dispatcher {
	return &Dispatcher{name: "greedy-profit", order: func(in *core.Input, s int) []int {
		sys := in.Sys
		score := make([]float64, sys.L())
		for l := 0; l < sys.L(); l++ {
			for k := 0; k < sys.K(); k++ {
				score[l] += sys.UnitProfit(k, s, l, sys.Classes[k].TUF.MaxUtility(), in.Prices[l])
			}
		}
		return sortedBy(sys.L(), func(a, b int) bool { return score[a] > score[b] })
	}}
}

func sortedBy(n int, less func(a, b int) bool) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return less(idx[i], idx[j]) })
	return idx
}

// Plan implements core.Planner. Front-ends are processed in order; each
// visits centers in the dispatcher's order, assigning as much of its
// per-type arrivals as the center's remaining capacity allows. Capacity of
// type k at center l is the even-share rate that still meets the type's
// final deadline: M_l·(C·μ_k/K − 1/D_k), shared across front-ends.
// Requests beyond total capacity are dropped (the paper's Balanced also
// fails to complete all requests under load).
func (d *Dispatcher) Plan(in *core.Input) (*core.Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sys := in.Sys
	K, S, L := sys.K(), sys.S(), sys.L()
	share := 1.0 / float64(K)

	remaining := make([][]float64, K) // [k][l] residual capacity
	for k := 0; k < K; k++ {
		remaining[k] = make([]float64, L)
		deadline := sys.Classes[k].TUF.Deadline()
		for l := 0; l < L; l++ {
			remaining[k][l] = sys.DedicatedCapacity(k, l, share, deadline)
		}
	}

	// assigned[k][s][l] before levels are known.
	assigned := make([][][]float64, K)
	for k := range assigned {
		assigned[k] = make([][]float64, S)
		for s := range assigned[k] {
			assigned[k][s] = make([]float64, L)
		}
	}
	for s := 0; s < S; s++ {
		order := d.order(in, s)
		if len(order) != L {
			return nil, fmt.Errorf("baseline: order for front-end %d returned %d centers, want %d", s, len(order), L)
		}
		for k := 0; k < K; k++ {
			left := in.Arrivals[s][k]
			for _, l := range order {
				if left <= 0 {
					break
				}
				take := left
				if take > remaining[k][l] {
					take = remaining[k][l]
				}
				if take <= 0 {
					continue
				}
				assigned[k][s][l] += take
				remaining[k][l] -= take
				left -= take
			}
		}
	}

	plan := core.NewPlan(sys)
	for l := 0; l < L; l++ {
		dc := &sys.Centers[l]
		anyLoad := false
		for k := 0; k < K; k++ {
			var lam float64
			for s := 0; s < S; s++ {
				lam += assigned[k][s][l]
			}
			if lam <= 0 {
				continue
			}
			anyLoad = true
			// Achieved delay at even share with the load spread across all
			// M servers, then the TUF level it lands in.
			perServer := lam / float64(dc.Servers)
			rate := share*dc.Capacity*dc.ServiceRate[k] - perServer
			if rate <= 0 {
				return nil, fmt.Errorf("baseline: center %d type %d overloaded despite capacity cap", l, k)
			}
			delay := 1 / rate
			cls := sys.Classes[k].TUF
			q := cls.LevelIndex(delay)
			if q < 0 {
				// A center filled to exactly its capacity meets the final
				// deadline with equality; floating point may land one ulp
				// past it.
				if delay <= cls.Deadline()*(1+core.DeadlineSnap) {
					q = cls.NumLevels() - 1
				} else {
					return nil, fmt.Errorf("baseline: center %d type %d delay %g beyond final deadline", l, k, delay)
				}
			}
			for s := 0; s < S; s++ {
				plan.Rate[k][q][s][l] = assigned[k][s][l]
			}
			plan.Phi[l][k][q] = share
		}
		if anyLoad {
			// The static baseline leaves the whole fleet powered on; only a
			// fully idle center is switched off.
			plan.ServersOn[l] = dc.Servers
		}
	}
	plan.Objective = core.PlanObjective(in, plan)
	return plan, nil
}
