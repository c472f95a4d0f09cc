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
	"profitlb/internal/linalg"
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
	// Epoch is, on the serving plane, the plan epoch the slot's commit
	// will publish (dispatch.Driver mints it before planning), so the
	// planner's events join the replicas' on (Slot, Epoch). Informational
	// like Slot; 0 offline.
	Epoch uint64
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

// A plan's storage is a fixed handful of slabs whatever its size: every
// Rate[k][q][s] and Phi[l][k] row is cut from one []float64, every
// Rate[k][q] and Phi[l] row from one [][]float64, and every Rate[k] from
// one [][][]float64. Rows are capped at their own length, so appending to
// one reallocates it rather than writing into its neighbour.

// NewPlan allocates a zero plan shaped for the system.
func NewPlan(sys *datacenter.System) *Plan {
	K, S, L := sys.K(), sys.S(), sys.L()
	var levels int
	for k := range sys.Classes {
		levels += sys.Classes[k].TUF.NumLevels()
	}
	p := &Plan{
		Rate:      make([][][][]float64, K),
		Phi:       make([][][]float64, L),
		ServersOn: make([]int, L),
	}
	byLevel := make([][][]float64, levels)
	heads := make([][]float64, levels*S+L*K)
	cells := make([]float64, levels*S*L+L*levels)
	for k := range p.Rate {
		p.Rate[k] = linalg.Carve(&byLevel, sys.Classes[k].TUF.NumLevels())
		for q := range p.Rate[k] {
			p.Rate[k][q] = linalg.Carve(&heads, S)
			for s := range p.Rate[k][q] {
				p.Rate[k][q][s] = linalg.Carve(&cells, L)
			}
		}
	}
	for l := range p.Phi {
		p.Phi[l] = linalg.Carve(&heads, K)
		for k := range p.Phi[l] {
			p.Phi[l][k] = linalg.Carve(&cells, sys.Classes[k].TUF.NumLevels())
		}
	}
	return p
}

// reuse returns held zeroed when it is shaped as NewPlan(sys) cuts, row
// for row, and a new plan otherwise: the refill of a plan its owner holds.
func reuse(held *Plan, sys *datacenter.System) *Plan {
	if held == nil || len(held.Rate) != sys.K() || len(held.Phi) != sys.L() || len(held.ServersOn) != sys.L() {
		return NewPlan(sys)
	}
	for k := range held.Rate {
		nq := sys.Classes[k].TUF.NumLevels()
		if len(held.Rate[k]) != nq {
			return NewPlan(sys)
		}
		for q := range held.Rate[k] {
			if len(held.Rate[k][q]) != sys.S() {
				return NewPlan(sys)
			}
			for s := range held.Rate[k][q] {
				if len(held.Rate[k][q][s]) != sys.L() {
					return NewPlan(sys)
				}
			}
		}
	}
	for l := range held.Phi {
		if len(held.Phi[l]) != sys.K() {
			return NewPlan(sys)
		}
		for k := range held.Phi[l] {
			if len(held.Phi[l][k]) != sys.Classes[k].TUF.NumLevels() {
				return NewPlan(sys)
			}
		}
	}
	held.Objective = 0
	clear(held.ServersOn)
	for k := range held.Rate {
		for q := range held.Rate[k] {
			for s := range held.Rate[k][q] {
				clear(held.Rate[k][q][s])
			}
		}
	}
	for l := range held.Phi {
		for k := range held.Phi[l] {
			clear(held.Phi[l][k])
		}
	}
	return held
}

// Clone returns a deep copy of the plan, shaped like it row for row.
func (p *Plan) Clone() *Plan { return p.CopyTo(nil) }

// CopyTo copies the plan into dst and returns dst when dst is shaped like
// the plan row for row; otherwise (dst nil included) it returns a fresh
// copy and leaves dst alone. A holder that keeps a copy of each slot's
// plan refills one buffer this way instead of cloning a new one.
func (p *Plan) CopyTo(dst *Plan) *Plan {
	if dst == nil || !dst.sameShape(p) {
		dst = p.zeroLike()
	}
	dst.Objective = p.Objective
	copy(dst.ServersOn, p.ServersOn)
	for k := range p.Rate {
		for q := range p.Rate[k] {
			for s := range p.Rate[k][q] {
				copy(dst.Rate[k][q][s], p.Rate[k][q][s])
			}
		}
	}
	for l := range p.Phi {
		for k := range p.Phi[l] {
			copy(dst.Phi[l][k], p.Phi[l][k])
		}
	}
	return dst
}

// Shift returns Σ|λ − λ'| over every rate cell of the plan and prev: how
// much dispatch moved between two slots. It reports false when the two
// plans are shaped differently.
func (p *Plan) Shift(prev *Plan) (float64, bool) {
	if !p.sameShape(prev) {
		return 0, false
	}
	var sum float64
	for k := range p.Rate {
		for q := range p.Rate[k] {
			for s := range p.Rate[k][q] {
				was := prev.Rate[k][q][s]
				for l, v := range p.Rate[k][q][s] {
					sum += math.Abs(v - was[l])
				}
			}
		}
	}
	return sum, true
}

// sameShape reports whether p and o have the same rows, row for row.
func (p *Plan) sameShape(o *Plan) bool {
	if len(p.ServersOn) != len(o.ServersOn) || len(p.Rate) != len(o.Rate) || len(p.Phi) != len(o.Phi) {
		return false
	}
	for k := range p.Rate {
		if len(p.Rate[k]) != len(o.Rate[k]) {
			return false
		}
		for q := range p.Rate[k] {
			if len(p.Rate[k][q]) != len(o.Rate[k][q]) {
				return false
			}
			for s := range p.Rate[k][q] {
				if len(p.Rate[k][q][s]) != len(o.Rate[k][q][s]) {
					return false
				}
			}
		}
	}
	for l := range p.Phi {
		if len(p.Phi[l]) != len(o.Phi[l]) {
			return false
		}
		for k := range p.Phi[l] {
			if len(p.Phi[l][k]) != len(o.Phi[l][k]) {
				return false
			}
		}
	}
	return true
}

// zeroLike allocates a zero plan shaped like p row for row, from the same
// slabs NewPlan cuts.
func (p *Plan) zeroLike() *Plan {
	var nLevels, nHeads, nCells int
	for k := range p.Rate {
		nLevels += len(p.Rate[k])
		for q := range p.Rate[k] {
			nHeads += len(p.Rate[k][q])
			for s := range p.Rate[k][q] {
				nCells += len(p.Rate[k][q][s])
			}
		}
	}
	for l := range p.Phi {
		nHeads += len(p.Phi[l])
		for k := range p.Phi[l] {
			nCells += len(p.Phi[l][k])
		}
	}
	out := &Plan{
		Rate:      make([][][][]float64, len(p.Rate)),
		Phi:       make([][][]float64, len(p.Phi)),
		ServersOn: make([]int, len(p.ServersOn)),
	}
	byLevel := make([][][]float64, nLevels)
	heads := make([][]float64, nHeads)
	cells := make([]float64, nCells)
	for k := range p.Rate {
		out.Rate[k] = linalg.Carve(&byLevel, len(p.Rate[k]))
		for q := range p.Rate[k] {
			out.Rate[k][q] = linalg.Carve(&heads, len(p.Rate[k][q]))
			for s := range p.Rate[k][q] {
				out.Rate[k][q][s] = linalg.Carve(&cells, len(p.Rate[k][q][s]))
			}
		}
	}
	for l := range p.Phi {
		out.Phi[l] = linalg.Carve(&heads, len(p.Phi[l]))
		for k := range p.Phi[l] {
			out.Phi[l][k] = linalg.Carve(&cells, len(p.Phi[l][k]))
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

// Valuation prices a committed plan commodity by commodity, as paper Eq.
// 5 books it: the one place a plan's shares become rates, delays, money
// and service rates. The simulator's accounting and Compile read it.
type Valuation struct {
	sys    *datacenter.System
	plan   *Plan
	prices []float64
	sumPhi []float64 // per center: Σφ, the committed share total
}

// Priced is one commodity's valuation under a plan.
type Priced struct {
	// Rate is Λ_{k,q,l}, the commodity's aggregate rate at the center.
	Rate float64
	// Delay is Plan.Delay snapped onto level q's deadline when the plan
	// meets it with equality: the LP leaves such a commodity within
	// round-off above it, and the step TUF would pay it a level down.
	Delay float64
	// Utility is the TUF's per-request revenue at Delay.
	Utility float64
	// Service is the per-server rate the commodity is served at: its share
	// plus a cut of the center's unallocated slack in proportion to it,
	// times C·μ_k — (φ/Σφ)·C·μ_k with slack. The boosted shares sum to 1,
	// so all commodities served at Service at once still fit the center.
	Service float64
	// Headroom is the factor by which Rate can grow, served at Service,
	// before a request more earns less than the misses it causes (boost),
	// short of the rate at which the delay reaches the level deadline;
	// never below 1.
	Headroom float64
}

// Value prepares the valuation of plan, committed against in.
func Value(in *Input, plan *Plan) Valuation {
	sumPhi := make([]float64, len(plan.ServersOn))
	for l := range sumPhi {
		for k := range plan.Rate {
			for _, phi := range plan.Phi[l][k] {
				sumPhi[l] += phi
			}
		}
	}
	return Valuation{sys: in.Sys, plan: plan, prices: in.Prices, sumPhi: sumPhi}
}

// At prices commodity (k, q, l).
func (v Valuation) At(k, q, l int) Priced {
	tf, dc := v.sys.Classes[k].TUF, &v.sys.Centers[l]
	lam, d, deadline := v.plan.CenterRate(k, q, l), v.plan.Delay(v.sys, k, q, l), tf.Level(q).Deadline
	if d > deadline && d <= deadline*(1+DeadlineSnap) {
		d = deadline
	}
	phi := v.plan.Phi[l][k][q]
	boosted := phi
	if slack := 1 - v.sumPhi[l]; slack > 0 && v.sumPhi[l] > 0 {
		boosted += slack * phi / v.sumPhi[l]
	}
	c := Priced{Rate: lam, Delay: d, Utility: tf.Utility(d), Service: boosted * dc.Capacity * dc.ServiceRate[k], Headroom: 1}
	// Below the rate at which Service meets the deadline, the rate that
	// earns the most (boost); NaN compares false.
	if n := float64(v.plan.ServersOn[l]); lam > RateEps && n > 0 && deadline > 0 && n*(c.Service-1/deadline) > lam {
		peak := boost(c.Service*deadline, tf.Level(q).Utility, v.sys.EnergyCost(k, l, v.prices[l]))
		c.Headroom = max(min(peak, c.Service*deadline-1)*n/(deadline*lam), 1)
	}
	return c
}

// boost is μD − x, the rate per server in units of 1/D at which traffic
// served at μ earns the most when a request pays u if its sojourn time,
// exponential at θ = μ − λ, is within D and costs e to serve: with x = θD,
// λ(u(1 − e^{−x}) − e) peaks where (1 + μD − x)·e^{−x} = 1 − e/u. One
// Newton step from x₀ = ln((1 + μD)/(1 − e/u)), where e^{x₀} is known,
// lands within 1e-3 of the root once μD passes 100 (0.03 at 10). A late
// request earns a lower level's utility, not 0, so the true peak lies
// above it. 0 where a request costs what it pays.
func boost(mD, u, e float64) float64 {
	if e >= u {
		return 0
	}
	x := math.Log((1 + mD) / (1 - e/u))
	x -= x / (2 + mD - x)
	return max(mD-x, 0)
}

// Expected is a request's expected utility on commodity (k, q, l) as the
// queue pays it rather than as Eq. 1 books it: random splitting makes each
// of the center's n servers an M/M/1 queue served at Service with
// arrivals Λ/n, whose sojourn time is exponential at θ = Service − Λ/n,
// so the step TUF pays Σᵢ Uᵢ·(e^{−θDᵢ₋₁} − e^{−θDᵢ}) with D₀ = 0. It is 0
// where no server is on or θ ≤ 0.
func (v Valuation) Expected(k, q, l int) float64 {
	n := float64(v.plan.ServersOn[l])
	if n <= 0 {
		return 0
	}
	theta := v.At(k, q, l).Service - v.plan.CenterRate(k, q, l)/n
	if !(theta > 0) {
		return 0
	}
	tf := v.sys.Classes[k].TUF
	var e float64
	above := 1.0 // P(R > Dᵢ₋₁)
	for i := 0; i < tf.NumLevels(); i++ {
		lv := tf.Level(i)
		next := math.Exp(-theta * lv.Deadline)
		e += lv.Utility * (above - next)
		above = next
	}
	return e
}

// ErrTimeout is what a planner wraps when it ran out of its time budget;
// a resilient chain classifies it as a timeout, not a plain error.
var ErrTimeout = errors.New("the planner ran out of its time budget")

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
