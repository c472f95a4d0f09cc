// Package queue implements the queueing-theoretic delay models the paper
// builds on. The dispatcher treats each (request type, server) pair as an
// M/M/1 queue whose service rate is the CPU share φ granted to the type
// times the server capacity C times the type's full-capacity rate μ
// (paper Eq. 1):
//
//	R = 1 / (φ·C·μ − λ)
//
// The package provides the forward model, its M/G/1 (Pollaczek–Khinchine)
// and M/M/c (Erlang-C) counterparts for the validation experiments, and
// the request-level realization of such a queue: the one FIFO Lindley
// loop (fifo.go) under des.Run, the seeded Poisson run and the replay of
// recorded arrivals, with ValidatePlan and UtilityGap (plan.go) on top.
package queue

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable is returned when the offered load meets or exceeds the
// effective service rate, i.e. the queue has no steady state.
var ErrUnstable = errors.New("queue: arrival rate >= service rate (unstable)")

// MM1 describes one M/M/1 station: a server of capacity C serving one
// request type at full-capacity rate Mu under CPU share Phi.
type MM1 struct {
	Phi float64 // CPU share in [0, 1]
	C   float64 // server capacity (paper normalizes to 1)
	Mu  float64 // service rate at full capacity, requests per time unit
}

// ServiceRate returns the effective service rate φ·C·μ.
func (q MM1) ServiceRate() float64 { return q.Phi * q.C * q.Mu }

// Delay returns the expected response time at arrival rate lambda
// (paper Eq. 1). It returns ErrUnstable when lambda ≥ φCμ.
func (q MM1) Delay(lambda float64) (float64, error) {
	if lambda < 0 {
		return 0, fmt.Errorf("queue: negative arrival rate %g", lambda)
	}
	s := q.ServiceRate()
	if lambda >= s {
		return math.Inf(1), ErrUnstable
	}
	return 1 / (s - lambda), nil
}

// Stable reports whether arrival rate lambda admits a steady state.
func (q MM1) Stable(lambda float64) bool { return lambda >= 0 && lambda < q.ServiceRate() }

// MMC describes an M/M/c station with c identical servers, each of service
// rate Mu. It extends the paper's per-server model to pooled clusters.
type MMC struct {
	Servers int
	Mu      float64
}

// ErlangC returns the probability that an arriving request must wait,
// computed with the numerically stable iterative form of the Erlang-C
// formula.
func (q MMC) ErlangC(lambda float64) (float64, error) {
	c := q.Servers
	if c < 1 {
		return 0, fmt.Errorf("queue: M/M/c needs at least one server, got %d", c)
	}
	a := lambda / q.Mu // offered load in Erlangs
	if a >= float64(c) {
		return 1, ErrUnstable
	}
	if lambda < 0 {
		return 0, fmt.Errorf("queue: negative arrival rate %g", lambda)
	}
	// Iterative Erlang-B, then convert to Erlang-C.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b)), nil
}

// Delay returns the expected response time of the M/M/c system, the sum of
// the expected wait (Erlang-C over remaining capacity) and the service time.
func (q MMC) Delay(lambda float64) (float64, error) {
	pw, err := q.ErlangC(lambda)
	if err != nil {
		return math.Inf(1), err
	}
	wait := pw / (float64(q.Servers)*q.Mu - lambda)
	return wait + 1/q.Mu, nil
}

// Stable reports whether the pooled station admits a steady state.
func (q MMC) Stable(lambda float64) bool {
	return lambda >= 0 && lambda < float64(q.Servers)*q.Mu
}
