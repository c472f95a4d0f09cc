// Package des is a request-level discrete-event simulator for the whole
// distributed system: where internal/sim accounts each slot in fluid
// expectation (rates × expected delays, as the paper's own evaluation
// does), des realizes every individual request — Poisson arrivals within
// the slot, exponential service on the share each commodity owns, and
// per-request utility evaluated on the request's own response time.
//
// It answers the question a downstream operator would ask before trusting
// the fluid numbers: if actual requests flow through the planned shares,
// how close are realized service counts, delays and dollars to the plan?
//
// Each (type, level) commodity on each powered-on server is an
// independent M/M/1 queue (virtualized CPU shares isolate them), so the
// exact Lindley recurrence (lindley) applies per queue and no global
// event heap is needed. Slot boundaries are treated as queue resets: level
// deadlines (≈ seconds) are several orders of magnitude below the slot
// length (1 hour), so boundary effects are negligible by construction.
package des

import (
	"fmt"
	"math"
	"math/rand"

	"profitlb/internal/core"
	"profitlb/internal/sim"
	"profitlb/internal/workload"
)

// Config drives a request-level run.
type Config struct {
	// Sim is the fluid configuration to realize (system, traces, prices,
	// horizon).
	Sim sim.Config
	// Planner plans each slot exactly as in the fluid simulation.
	Planner core.Planner
	// Seed makes the request sampling deterministic.
	Seed int64
	// ServiceCV is the coefficient of variation of service times: ≤ 0
	// (the zero-value default) or exactly 1 draws exponential service,
	// matching the planner's M/M/1 assumption; 0 < CV < 1 draws Erlang-k
	// (steadier, k capped at 64, so the smallest effective CV is 0.125);
	// CV > 1 draws a balanced two-phase hyperexponential (burstier). Use
	// it to stress the plan against service distributions the paper's
	// model does not cover (the Pollaczek–Khinchine cross-check in
	// des_test.go gives the mean delay each CV should realize).
	ServiceCV float64
}

// serviceSampler returns a deterministic-in-rng sampler of service times
// with mean 1/mu and the configured coefficient of variation.
func serviceSampler(cv float64) func(rng *rand.Rand, mu float64) float64 {
	switch {
	case cv <= 0 || cv == 1:
		return func(rng *rand.Rand, mu float64) float64 { return rng.ExpFloat64() / mu }
	case cv < 1:
		// Erlang-k with k = round(1/cv²): sum of k exponentials at rate kμ.
		k := int(math.Round(1 / (cv * cv)))
		if k < 1 {
			k = 1
		}
		if k > 64 {
			k = 64
		}
		return func(rng *rand.Rand, mu float64) float64 {
			var s float64
			for i := 0; i < k; i++ {
				s += rng.ExpFloat64()
			}
			return s / (float64(k) * mu)
		}
	default:
		// Balanced-means H2: with probability p rate 2pμ, else 2(1−p)μ.
		c2 := cv * cv
		p := 0.5 * (1 + math.Sqrt((c2-1)/(c2+1)))
		return func(rng *rand.Rand, mu float64) float64 {
			if rng.Float64() < p {
				return rng.ExpFloat64() / (2 * p * mu)
			}
			return rng.ExpFloat64() / (2 * (1 - p) * mu)
		}
	}
}

// ClassSlot aggregates one request type's realized behaviour in a slot.
type ClassSlot struct {
	// Served is the number of individual requests that flowed through the
	// planned queues.
	Served int
	// MeanDelay is the realized mean response time.
	MeanDelay float64
	// MaxDelay is the slowest request's response time.
	MaxDelay float64
	// DeadlineMisses counts requests finishing after their commodity's
	// level deadline (they earn a lower TUF step, or nothing).
	DeadlineMisses int
}

// SlotResult is the realized accounting of one slot.
type SlotResult struct {
	Slot int
	// Degraded marks a slot that did not get its primary plan: a
	// resilient fallback tier fired, or the plan failed and the slot's
	// load was shed (Config.Sim.DegradeOnFailure).
	Degraded bool
	// FallbackTier mirrors sim.SlotReport.FallbackTier (-1 when the
	// planner reports no fallback state).
	FallbackTier int
	// FallbackName is the committed tier's name ("shed" for a shed slot).
	FallbackName string
	// FaultsActive lists the injected faults in effect during the slot.
	FaultsActive []string
	// PlannedNetProfit is the fluid expectation (the planner's Eq. 5
	// objective value).
	PlannedNetProfit float64
	// RealizedNetProfit bills every request at the TUF value of its own
	// response time, minus realized energy and transfer costs.
	RealizedNetProfit float64
	// Revenue, EnergyCost and TransferCost are the realized components.
	Revenue      float64
	EnergyCost   float64
	TransferCost float64
	// Classes holds the per-type realized statistics.
	Classes []ClassSlot
}

// Report is the realized run.
type Report struct {
	Planner string
	Slots   []SlotResult
}

// TotalPlanned sums the fluid expectations.
func (r *Report) TotalPlanned() float64 {
	var s float64
	for i := range r.Slots {
		s += r.Slots[i].PlannedNetProfit
	}
	return s
}

// TotalRealized sums the realized per-request profits.
func (r *Report) TotalRealized() float64 {
	var s float64
	for i := range r.Slots {
		s += r.Slots[i].RealizedNetProfit
	}
	return s
}

// MissRate returns the fraction of served type-k requests that missed
// their commodity's level deadline over the whole run.
func (r *Report) MissRate(k int) float64 {
	var served, missed int
	for i := range r.Slots {
		served += r.Slots[i].Classes[k].Served
		missed += r.Slots[i].Classes[k].DeadlineMisses
	}
	if served == 0 {
		return 0
	}
	return float64(missed) / float64(served)
}

// Run commits every slot through the shared slot protocol (core.Step on
// sim.InputSource views, exactly as the fluid simulation does — plan
// traces, fault-distorted views and feeds included) and pushes sampled
// requests through the committed queues; realization and accounting use
// the true arrivals, prices and surviving capacity. A failed slot
// (planner error or panic, infeasible plan) aborts the run with the
// partial report, or — when Config.Sim.DegradeOnFailure is set — sheds
// its load and continues.
func Run(cfg Config) (*Report, error) {
	if cfg.Planner == nil {
		return nil, fmt.Errorf("des: no planner configured")
	}
	src, err := sim.NewInputSource(cfg.Sim)
	if err != nil {
		return nil, err
	}
	src.Attach(cfg.Planner)
	sys := cfg.Sim.Sys
	T := sys.Slot()
	K, S, L := sys.K(), sys.S(), sys.L()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := serviceSampler(cfg.ServiceCV)
	report := &Report{Planner: cfg.Planner.Name()}

	for slot := 0; slot < cfg.Sim.Slots; slot++ {
		abs := cfg.Sim.StartSlot + slot
		view, err := src.View(abs)
		if err != nil {
			return report, fmt.Errorf("des: slot %d: %w", slot, err)
		}
		view.Health.Notify(cfg.Planner)
		c := core.Step(cfg.Planner, view.Plan, view.Actual, view.Distorted)
		if c.Err != nil && !cfg.Sim.DegradeOnFailure {
			return report, fmt.Errorf("des: slot %d: %w", slot, c.Err)
		}
		// A failed slot commits the empty plan: no queue carries load, so
		// the realization below serves and bills nothing.
		plan, effSys, prices := c.Plan, view.Actual.Sys, view.Actual.Prices
		sr := SlotResult{
			Slot:             abs,
			PlannedNetProfit: plan.Objective,
			Degraded:         c.Degraded,
			FallbackTier:     c.Tier,
			FallbackName:     c.TierName,
			FaultsActive:     cfg.Sim.Faults.ActiveNames(abs),
			Classes:          make([]ClassSlot, K),
		}
		for l := 0; l < L; l++ {
			dc := &effSys.Centers[l]
			for k := 0; k < K; k++ {
				cls := sys.Classes[k].TUF
				for q := range plan.Rate[k] {
					lamTotal := plan.CenterRate(k, q, l)
					if lamTotal <= core.RateEps {
						continue
					}
					mu := plan.Phi[l][k][q] * dc.Capacity * dc.ServiceRate[k]
					lamPS := lamTotal / float64(plan.ServersOn[l])
					deadline := cls.Level(q).Deadline
					// Expected per-request transfer cost for this
					// commodity, weighted by its front-end mix.
					var tc float64
					for s := 0; s < S; s++ {
						tc += sys.TransferCost(k, s, l) * plan.Rate[k][q][s][l]
					}
					tc /= lamTotal
					energy := sys.EnergyCost(k, l, prices[l])
					for srv := 0; srv < plan.ServersOn[l]; srv++ {
						served, revenue, stats := simulateQueue(rng, sample, lamPS, mu, T, cls.Utility, deadline)
						sr.Revenue += revenue
						sr.EnergyCost += energy * float64(served)
						sr.TransferCost += tc * float64(served)
						agg := &sr.Classes[k]
						// Merge the per-queue stats into the class slot.
						total := agg.Served + served
						if total > 0 {
							agg.MeanDelay = (agg.MeanDelay*float64(agg.Served) + stats.sumDelay) / float64(total)
						}
						agg.Served = total
						agg.DeadlineMisses += stats.misses
						if stats.maxDelay > agg.MaxDelay {
							agg.MaxDelay = stats.maxDelay
						}
					}
				}
			}
		}
		sr.RealizedNetProfit = sr.Revenue - sr.EnergyCost - sr.TransferCost
		report.Slots = append(report.Slots, sr)
	}
	return report, nil
}

// queueStats carries per-queue realized aggregates.
type queueStats struct {
	sumDelay float64
	maxDelay float64
	misses   int
}

// simulateQueue realizes one commodity queue on one server for a slot of
// length T: Poisson arrivals at rate lam, exponential service at rate mu,
// FIFO. Revenue is the sum of the TUF evaluated at each request's own
// response time. Requests arriving within the slot are all served (their
// service spills past the boundary by at most a few mean delays, which is
// negligible against T).
func simulateQueue(rng *rand.Rand, sample func(*rand.Rand, float64) float64, lam, mu, T float64, utility func(float64) float64, deadline float64) (int, float64, queueStats) {
	var stats queueStats
	if lam <= 0 || mu <= 0 {
		return 0, 0, stats
	}
	var served int
	var revenue float64
	var arrive float64
	lindley(func() (float64, bool) {
		arrive += rng.ExpFloat64() / lam
		return arrive, arrive <= T
	}, func() float64 { return sample(rng, mu) }, func(delay float64) {
		served++
		revenue += utility(delay)
		stats.sumDelay += delay
		if delay > stats.maxDelay {
			stats.maxDelay = delay
		}
		if delay > deadline {
			stats.misses++
		}
	})
	return served, revenue, stats
}

// lindley pushes a stream of requests through one FIFO single-server
// queue — a commodity's CPU share on one server — by the exact recurrence
//
//	depart[i] = max(arrive[i], depart[i-1]) + service[i]
//
// which needs no event list. next yields the arrival instants in
// non-decreasing order and false once the stream has ended; service draws
// one request's service time; visit receives its response time. next runs
// before service, so callers drawing both from one rand.Rand consume it
// arrival first.
func lindley(next func() (arrive float64, ok bool), service func() float64, visit func(delay float64)) {
	var departPrev float64
	for {
		arrive, ok := next()
		if !ok {
			return
		}
		start := arrive
		if departPrev > start {
			start = departPrev
		}
		depart := start + service()
		visit(depart - arrive)
		departPrev = depart
	}
}

// Thin returns a copy of the configuration with every trace (and plan
// trace) scaled by f, for keeping request counts tractable in tests (note
// that thinning a queueing system changes its delays; use it to bound
// runtime, not to extrapolate dollars).
func Thin(cfg Config, f float64) Config {
	thin := func(traces []*workload.Trace) []*workload.Trace {
		if traces == nil {
			return nil
		}
		out := make([]*workload.Trace, len(traces))
		for i, tr := range traces {
			cp := &workload.Trace{Name: tr.Name, Rates: make([][]float64, tr.Slots())}
			for s := range cp.Rates {
				cp.Rates[s] = append([]float64(nil), tr.Rates[s]...)
			}
			out[i] = cp.Scale(f)
		}
		return out
	}
	out := cfg
	out.Sim.Traces = thin(cfg.Sim.Traces)
	out.Sim.PlanTraces = thin(cfg.Sim.PlanTraces)
	return out
}
