// Package core implements the paper's primary contribution: the per-slot
// profit- and cost-aware request dispatching and resource allocation
// optimization (paper Section IV).
//
// Each scheduling slot, a Planner receives the topology, the per-front-end
// arrival rates and the per-location electricity prices, and produces a
// Plan: how much of each request type each front-end sends to each data
// center, the per-server CPU shares granted to each type, and how many
// servers each data center powers on.
//
// Two planners implement the paper's "Optimized" approach:
//
//   - Optimized solves one LP in which every TUF level of every type is a
//     separate commodity with its own share variable and linearized
//     deadline constraint. This models what the paper's per-server solver
//     achieves by letting different servers of a data center target
//     different utility levels, without any discrete search.
//   - LevelSearch reproduces the discrete decomposition a MINLP solver
//     explores: it commits each (type, data center) pair to a single
//     utility level, solves the induced LP, and searches assignments
//     exhaustively, greedily, or by branch-and-bound.
//
// The Balanced baseline of the paper's evaluation lives in
// internal/baseline.
package core

import (
	"errors"
	"fmt"
	"math"

	"profitlb/internal/datacenter"
)

// Input is everything a planner sees at the start of a slot.
type Input struct {
	Sys *datacenter.System
	// Arrivals[s][k] is the average arrival rate λ_{k,s} of type k at
	// front-end s during the slot.
	Arrivals [][]float64
	// Prices[l] is the electricity price p_l at data center l, $/kWh.
	Prices []float64
	// Slot is the absolute slot index being planned. It is informational
	// (planners must not need it to produce a feasible plan) and exists so
	// slot-aware wrappers — fault injectors, resilient fallback chains,
	// decision logs — can tie their records to the simulation timeline.
	Slot int
}

// Validate checks that the input is dimensionally consistent.
func (in *Input) Validate() error {
	if in.Sys == nil {
		return errors.New("core: input has no system")
	}
	if err := in.Sys.Validate(); err != nil {
		return err
	}
	if len(in.Arrivals) != in.Sys.S() {
		return fmt.Errorf("core: arrivals for %d front-ends, want %d", len(in.Arrivals), in.Sys.S())
	}
	for s, row := range in.Arrivals {
		if len(row) != in.Sys.K() {
			return fmt.Errorf("core: front-end %d arrivals for %d types, want %d", s, len(row), in.Sys.K())
		}
		for k, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: front-end %d type %d invalid arrival rate %g", s, k, v)
			}
		}
	}
	if len(in.Prices) != in.Sys.L() {
		return fmt.Errorf("core: prices for %d centers, want %d", len(in.Prices), in.Sys.L())
	}
	for l, p := range in.Prices {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("core: center %d invalid price %g", l, p)
		}
	}
	return nil
}

// Offered returns the total arrival rate of type k across front-ends.
func (in *Input) Offered(k int) float64 {
	var s float64
	for _, row := range in.Arrivals {
		s += row[k]
	}
	return s
}

// Plan is a slot decision: dispatch rates, shares and powered-on servers.
// Rates are indexed [k][q][s][l] where q is the TUF level of class k the
// traffic is served under; a class with n levels has q in [0, n).
type Plan struct {
	// Rate[k][q][s][l] is the rate of type-k requests from front-end s
	// served at data center l under utility level q.
	Rate [][][][]float64
	// Phi[l][k][q] is the per-server CPU share granted at data center l to
	// the (k, q) commodity, identical across powered-on servers.
	Phi [][][]float64
	// ServersOn[l] is the number of powered-on servers at data center l.
	ServersOn []int
	// Objective is the planner's predicted net profit for the slot
	// (dollars), i.e. the value of paper Eq. 5 at the chosen plan.
	Objective float64
}

// NewPlan allocates a zero plan shaped for the system.
func NewPlan(sys *datacenter.System) *Plan {
	K, S, L := sys.K(), sys.S(), sys.L()
	p := &Plan{
		Rate:      make([][][][]float64, K),
		Phi:       make([][][]float64, L),
		ServersOn: make([]int, L),
	}
	for k := 0; k < K; k++ {
		Q := sys.Classes[k].TUF.NumLevels()
		p.Rate[k] = make([][][]float64, Q)
		for q := 0; q < Q; q++ {
			p.Rate[k][q] = make([][]float64, S)
			for s := 0; s < S; s++ {
				p.Rate[k][q][s] = make([]float64, L)
			}
		}
	}
	for l := 0; l < L; l++ {
		p.Phi[l] = make([][]float64, K)
		for k := 0; k < K; k++ {
			p.Phi[l][k] = make([]float64, sys.Classes[k].TUF.NumLevels())
		}
	}
	return p
}

// Clone returns a deep copy of the plan.
func (p *Plan) Clone() *Plan {
	out := &Plan{
		Objective: p.Objective,
		ServersOn: append([]int(nil), p.ServersOn...),
		Rate:      make([][][][]float64, len(p.Rate)),
		Phi:       make([][][]float64, len(p.Phi)),
	}
	for k := range p.Rate {
		out.Rate[k] = make([][][]float64, len(p.Rate[k]))
		for q := range p.Rate[k] {
			out.Rate[k][q] = make([][]float64, len(p.Rate[k][q]))
			for s := range p.Rate[k][q] {
				out.Rate[k][q][s] = append([]float64(nil), p.Rate[k][q][s]...)
			}
		}
	}
	for l := range p.Phi {
		out.Phi[l] = make([][]float64, len(p.Phi[l]))
		for k := range p.Phi[l] {
			out.Phi[l][k] = append([]float64(nil), p.Phi[l][k]...)
		}
	}
	return out
}

// CenterRate returns Λ_{k,q,l}, the aggregate rate of commodity (k, q)
// served at data center l.
func (p *Plan) CenterRate(k, q, l int) float64 {
	var sum float64
	for s := range p.Rate[k][q] {
		sum += p.Rate[k][q][s][l]
	}
	return sum
}

// TypeCenterRate returns the rate of type k at center l summed over levels.
func (p *Plan) TypeCenterRate(k, l int) float64 {
	var sum float64
	for q := range p.Rate[k] {
		sum += p.CenterRate(k, q, l)
	}
	return sum
}

// Served returns the total planned rate of type k across levels, sources
// and centers.
func (p *Plan) Served(k int) float64 {
	var sum float64
	for q := range p.Rate[k] {
		for s := range p.Rate[k][q] {
			for _, v := range p.Rate[k][q][s] {
				sum += v
			}
		}
	}
	return sum
}

// ServedFrom returns the planned rate of type k dispatched by front-end s.
func (p *Plan) ServedFrom(k, s int) float64 {
	var sum float64
	for q := range p.Rate[k] {
		for _, v := range p.Rate[k][q][s] {
			sum += v
		}
	}
	return sum
}

// TotalServersOn returns the fleet-wide powered-on server count.
func (p *Plan) TotalServersOn() int {
	var n int
	for _, v := range p.ServersOn {
		n += v
	}
	return n
}

// Delay returns the expected M/M/1 delay of commodity (k, q) at center l
// under the plan: 1/(φCμ − Λ/n). It returns 0 for unused commodities and
// +Inf if the share cannot sustain the load (which a valid plan never
// produces).
func (p *Plan) Delay(sys *datacenter.System, k, q, l int) float64 {
	lam := p.CenterRate(k, q, l)
	phi := p.Phi[l][k][q]
	if lam == 0 && phi == 0 {
		return 0
	}
	n := float64(p.ServersOn[l])
	if n == 0 {
		return math.Inf(1)
	}
	dc := &sys.Centers[l]
	srv := phi*dc.Capacity*dc.ServiceRate[k] - lam/n
	if srv <= 0 {
		return math.Inf(1)
	}
	return 1 / srv
}

// AchievedDelay is Delay as the TUF prices it: snapped onto level q's
// deadline when the plan meets it with equality. The LP leaves such a
// commodity within round-off above its deadline, and the step function
// would otherwise pay it a level down.
func (p *Plan) AchievedDelay(sys *datacenter.System, k, q, l int) float64 {
	d := p.Delay(sys, k, q, l)
	if dq := sys.Classes[k].TUF.Level(q).Deadline; d > dq && d <= dq*(1+DeadlineSnap) {
		return dq
	}
	return d
}

// Planner produces a Plan for one slot.
type Planner interface {
	// Name identifies the planner in reports.
	Name() string
	// Plan computes the slot decision. Implementations must not retain in.
	Plan(in *Input) (*Plan, error)
}

// Verify checks the physical feasibility of a plan against its input:
// non-negative rates, arrival budgets respected per (type, front-end),
// per-server shares within [0,1] per center, powered-on counts within
// fleet sizes, and every used commodity's delay within its level deadline
// (within tol). It is the invariant gate used by tests and the simulator.
func Verify(in *Input, p *Plan, tol float64) error {
	sys := in.Sys
	K, S, L := sys.K(), sys.S(), sys.L()
	for k := 0; k < K; k++ {
		for s := 0; s < S; s++ {
			if got := p.ServedFrom(k, s); got > in.Arrivals[s][k]+tol {
				return fmt.Errorf("core: type %d front-end %d dispatches %g > arrivals %g", k, s, got, in.Arrivals[s][k])
			}
		}
		for q := range p.Rate[k] {
			for s := range p.Rate[k][q] {
				for l, v := range p.Rate[k][q][s] {
					if v < -tol {
						return fmt.Errorf("core: negative rate k=%d q=%d s=%d l=%d: %g", k, q, s, l, v)
					}
				}
			}
		}
	}
	for l := 0; l < L; l++ {
		if p.ServersOn[l] < 0 || p.ServersOn[l] > sys.Centers[l].Servers {
			return fmt.Errorf("core: center %d powers on %d of %d servers", l, p.ServersOn[l], sys.Centers[l].Servers)
		}
		var share float64
		for k := 0; k < K; k++ {
			for q := range p.Phi[l][k] {
				phi := p.Phi[l][k][q]
				if phi < -tol {
					return fmt.Errorf("core: negative share l=%d k=%d q=%d: %g", l, k, q, phi)
				}
				share += phi
			}
		}
		if share > 1+tol {
			return fmt.Errorf("core: center %d total share %g > 1", l, share)
		}
		for k := 0; k < K; k++ {
			for q := range p.Rate[k] {
				lam := p.CenterRate(k, q, l)
				if lam <= tol {
					continue
				}
				d := p.Delay(sys, k, q, l)
				deadline := sys.Classes[k].TUF.Level(q).Deadline
				if d > deadline*(1+VerifyTol)+tol {
					return fmt.Errorf("core: center %d commodity k=%d q=%d delay %g exceeds deadline %g", l, k, q, d, deadline)
				}
			}
		}
	}
	return nil
}
