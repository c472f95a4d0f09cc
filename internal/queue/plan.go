package queue

import (
	"fmt"
	"math"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
)

// eachQueue realizes the per-server queue of every loaded commodity of a
// plan, in (center, class, level) order, with n Poisson arrivals each
// under a seed derived from seed, and hands visit the response times.
func eachQueue(sys *datacenter.System, plan *core.Plan, n int, seed int64, visit func(l, k, q int, lamTotal float64, sim Sim, delays []float64)) error {
	for l := 0; l < sys.L(); l++ {
		dc := &sys.Centers[l]
		for k := 0; k < sys.K(); k++ {
			for q := range plan.Rate[k] {
				lamTotal := plan.CenterRate(k, q, l)
				if lamTotal <= core.RateEps {
					continue
				}
				if plan.ServersOn[l] == 0 {
					return fmt.Errorf("queue: center %d has load but no servers on", l)
				}
				sim := Sim{
					Lambda: lamTotal / float64(plan.ServersOn[l]),
					Mu:     plan.Phi[l][k][q] * dc.Capacity * dc.ServiceRate[k],
					Seed:   seed + int64(l*1000+k*100+q),
				}
				delays, err := sim.RunDelays(n)
				if err != nil {
					return fmt.Errorf("queue: center %d k=%d q=%d: %w", l, k, q, err)
				}
				visit(l, k, q, lamTotal, sim, delays)
			}
		}
	}
	return nil
}

// CommodityCheck is the empirical verdict for one planned commodity.
type CommodityCheck struct {
	Center, Class, Level int
	Lambda               float64 // per-server arrival rate
	ServiceRate          float64 // φ·C·μ
	Deadline             float64
	Expected             float64 // analytical mean delay
	Simulated            float64 // realized mean delay
	// RelErr is |simulated − expected| / expected.
	RelErr float64
}

// ValidatePlan simulates every loaded commodity of a plan with n Poisson
// arrivals each and returns the per-commodity comparison of realized vs
// analytical mean delay. It is the empirical bridge between the planner's
// queueing-theoretic guarantees and an actual stream of requests.
func ValidatePlan(sys *datacenter.System, plan *core.Plan, n int, seed int64) ([]CommodityCheck, error) {
	var out []CommodityCheck
	err := eachQueue(sys, plan, n, seed, func(l, k, q int, _ float64, sim Sim, delays []float64) {
		var sum float64
		for _, d := range delays {
			sum += d
		}
		mean, expected := sum/float64(len(delays)), sim.ExpectedDelay()
		out = append(out, CommodityCheck{
			Center: l, Class: k, Level: q,
			Lambda: sim.Lambda, ServiceRate: sim.Mu,
			Deadline:  sys.Classes[k].TUF.Level(q).Deadline,
			Expected:  expected,
			Simulated: mean,
			RelErr:    math.Abs(mean-expected) / expected,
		})
	})
	return out, err
}

// WorstRelErr returns the largest relative model error across checks
// (0 for an empty set).
func WorstRelErr(checks []CommodityCheck) float64 {
	var worst float64
	for _, c := range checks {
		if c.RelErr > worst {
			worst = c.RelErr
		}
	}
	return worst
}

// UtilityCheck compares the two possible SLA semantics for one planned
// commodity:
//
//   - MeanDelayUtility: the paper's semantics — utility of the *average*
//     delay, U(E[R]) (paper [23]: "profit comes from successfully
//     guaranteeing the average delay satisfaction").
//   - PerRequestUtility: the per-job semantics of TUF schedulers like the
//     authors' earlier work [17] — the average of per-request utilities,
//     E[U(R)].
//
// For step-downward TUFs these differ, in both directions: a commodity
// planned at the top level loses the exponential tail of its delay
// distribution to lower levels (E[U(R)] < U(E[R])), while a commodity
// planned at a loose level serves many individual requests fast enough to
// earn a higher step (E[U(R)] > U(E[R])). The gap quantifies how much
// revenue a provider billing per request would actually collect relative
// to the mean-delay contract the planner optimizes.
type UtilityCheck struct {
	Center, Class, Level int
	// Rate is the commodity's aggregate arrival rate at the center.
	Rate              float64
	MeanDelayUtility  float64
	PerRequestUtility float64
}

// UtilityGap simulates every loaded commodity of a plan with n Poisson
// arrivals and evaluates both utility semantics on the realized delays.
func UtilityGap(sys *datacenter.System, plan *core.Plan, n int, seed int64) ([]UtilityCheck, error) {
	var out []UtilityCheck
	err := eachQueue(sys, plan, n, seed, func(l, k, q int, lamTotal float64, _ Sim, delays []float64) {
		cls := sys.Classes[k].TUF
		var perReq float64
		for _, d := range delays {
			perReq += cls.Utility(d)
		}
		perReq /= float64(len(delays))
		// The mean-delay semantics use the analytical expectation: what
		// the planner contracted.
		out = append(out, UtilityCheck{
			Center: l, Class: k, Level: q, Rate: lamTotal,
			MeanDelayUtility:  cls.Utility(plan.AchievedDelay(sys, k, q, l)),
			PerRequestUtility: perReq,
		})
	})
	return out, err
}

// RevenueRates aggregates the checks into slot revenue rates ($ per time
// unit) under both semantics.
func RevenueRates(checks []UtilityCheck) (meanDelay, perRequest float64) {
	for _, c := range checks {
		meanDelay += c.MeanDelayUtility * c.Rate
		perRequest += c.PerRequestUtility * c.Rate
	}
	return
}
