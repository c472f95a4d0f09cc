package queue

import (
	"errors"
	"fmt"
	"math/rand"
)

// Lindley pushes a stream of requests through one FIFO single-server
// queue — a commodity's CPU share on one server — by the exact recurrence
//
//	depart[i] = max(arrive[i], depart[i-1]) + service[i]
//
// which needs no event list. next yields the arrival instants in
// non-decreasing order and false once the stream has ended; service draws
// one request's service time; visit receives its response time. next runs
// before service, so callers drawing both from one rand.Rand consume it
// arrival first.
func Lindley(next func() (arrive float64, ok bool), service func() float64, visit func(delay float64)) {
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

// Sim configures one simulated queue with exponential service: the
// request-level check of Eq. 1 on realized arrivals rather than in
// expectation.
type Sim struct {
	Lambda float64 // Poisson arrival rate (RunDelays)
	Mu     float64 // service rate (φ·C·μ for a shared server)
	Seed   int64
}

// ErrNoWork is returned when a run is asked for no arrivals.
var ErrNoWork = errors.New("queue: need at least one arrival")

// RunDelays simulates n Poisson arrivals through the queue and returns
// every request's response time, in arrival order. It is deterministic in
// the seed.
func (q Sim) RunDelays(n int) ([]float64, error) {
	if n < 1 {
		return nil, ErrNoWork
	}
	if q.Lambda <= 0 || q.Mu <= 0 {
		return nil, fmt.Errorf("queue: non-positive rates lambda=%g mu=%g", q.Lambda, q.Mu)
	}
	if q.Lambda >= q.Mu {
		return nil, ErrUnstable
	}
	rng := rand.New(rand.NewSource(q.Seed))
	var arrive float64
	return q.realize(rng, n, func(int) float64 {
		arrive += rng.ExpFloat64() / q.Lambda
		return arrive
	}), nil
}

// RunArrivals pushes externally generated arrival instants (sorted,
// non-negative) through the queue with exponential service at Mu,
// ignoring the Lambda field, and returns every response time in arrival
// order. It lets non-Poisson arrival processes (e.g. workload.MMPP) be
// replayed against the planner's M/M/1 assumptions.
func (q Sim) RunArrivals(arrivals []float64) ([]float64, error) {
	if len(arrivals) == 0 {
		return nil, ErrNoWork
	}
	if q.Mu <= 0 {
		return nil, fmt.Errorf("queue: non-positive service rate %g", q.Mu)
	}
	prev := 0.0
	for i, arrive := range arrivals {
		if arrive < prev {
			return nil, fmt.Errorf("queue: arrivals negative or not sorted at index %d", i)
		}
		prev = arrive
	}
	rng := rand.New(rand.NewSource(q.Seed))
	return q.realize(rng, len(arrivals), func(i int) float64 { return arrivals[i] }), nil
}

// ExpectedDelay returns the analytical Eq. 1 value for the queue.
func (q Sim) ExpectedDelay() float64 { return 1 / (q.Mu - q.Lambda) }

// realize runs n requests, request i arriving at next(i), through the
// queue with exponential service at Mu drawn from rng, and returns their
// response times in arrival order.
func (q Sim) realize(rng *rand.Rand, n int, next func(i int) float64) []float64 {
	delays := make([]float64, 0, n)
	Lindley(
		func() (float64, bool) {
			if len(delays) == n {
				return 0, false
			}
			return next(len(delays)), true
		},
		func() float64 { return rng.ExpFloat64() / q.Mu },
		func(d float64) { delays = append(delays, d) })
	return delays
}
