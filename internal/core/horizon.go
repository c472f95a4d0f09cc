package core

import (
	"errors"
	"fmt"
	"math"

	"profitlb/internal/datacenter"
	"profitlb/internal/lp"
)

// The paper's planner is slot-myopic: every request must be dispatched in
// the slot it arrives. Real clouds carry deferrable work — batch jobs
// whose contract says "complete within a few hours" — and electricity
// prices swing hour to hour, so holding such work for a cheap slot is
// free money the myopic planner leaves on the table. PlanHorizon extends
// the paper's LP across a window of slots: deferrable classes may be
// buffered at the front-ends for up to MaxDefer slots before dispatch,
// and one joint LP decides when and where everything runs.
//
// Semantics: a class's TUF governs its *in-server* expected delay exactly
// as in the paper; the deferral allowance is a separate contractual
// freedom (the job may sit in the arrival buffer for whole slots first).
// With MaxDefer all zero, PlanHorizon reduces to the paper's per-slot
// optimization, which the tests verify.

// HorizonInput describes a multi-slot planning window.
type HorizonInput struct {
	Sys *datacenter.System
	// Arrivals[t][s][k] is the arrival rate of type k at front-end s
	// during window slot t.
	Arrivals [][][]float64
	// Prices[t][l] is center l's electricity price during slot t.
	Prices [][]float64
	// MaxDefer[k] is how many whole slots type k may be buffered before
	// dispatch (0 = the paper's must-serve-on-arrival).
	MaxDefer []int
	// Backlog[s][k][r] is work already buffered at front-end s (rate
	// units, like Arrivals) that must be served within r further slots:
	// an r=0 bucket can only run in window slot 0, an r=2 bucket in
	// slots 0–2. Nil means no carried backlog (the offline PlanHorizon
	// case); a rolling-horizon controller (internal/mpc) snapshots its
	// aging buckets here each re-plan. The LP may leave backlog unserved
	// (the budget rows are ≤) — deadline enforcement for due buckets is
	// the controller's force-drain, not the LP's.
	Backlog [][][]float64
}

// Validate checks dimensions.
func (h *HorizonInput) Validate() error {
	if h.Sys == nil {
		return errors.New("core: horizon input has no system")
	}
	if err := h.Sys.Validate(); err != nil {
		return err
	}
	if len(h.Arrivals) == 0 || len(h.Arrivals) != len(h.Prices) {
		return fmt.Errorf("core: horizon has %d arrival slots and %d price slots", len(h.Arrivals), len(h.Prices))
	}
	if len(h.MaxDefer) != h.Sys.K() {
		return fmt.Errorf("core: MaxDefer has %d entries, want %d", len(h.MaxDefer), h.Sys.K())
	}
	for k, d := range h.MaxDefer {
		if d < 0 {
			return fmt.Errorf("core: MaxDefer[%d] negative", k)
		}
	}
	for t := range h.Arrivals {
		in := &Input{Sys: h.Sys, Arrivals: h.Arrivals[t], Prices: h.Prices[t]}
		if err := in.Validate(); err != nil {
			return fmt.Errorf("core: horizon slot %d: %w", t, err)
		}
	}
	if h.Backlog != nil {
		if len(h.Backlog) != h.Sys.S() {
			return fmt.Errorf("core: backlog for %d front-ends, want %d", len(h.Backlog), h.Sys.S())
		}
		for s, row := range h.Backlog {
			if len(row) != h.Sys.K() {
				return fmt.Errorf("core: backlog front-end %d has %d types, want %d", s, len(row), h.Sys.K())
			}
			for k, buckets := range row {
				for r, v := range buckets {
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						return fmt.Errorf("core: backlog[%d][%d][%d] invalid rate %g", s, k, r, v)
					}
				}
			}
		}
	}
	return nil
}

// backlogAt returns the h.Backlog bucket volume, tolerating nil/ragged
// shapes (absent buckets are zero).
func (h *HorizonInput) backlogAt(s, k, r int) float64 {
	if h.Backlog == nil || r >= len(h.Backlog[s][k]) {
		return 0
	}
	return h.Backlog[s][k][r]
}

// backlogDepth returns the deepest bucket index carried for (s, k), -1
// when none.
func (h *HorizonInput) backlogDepth(s, k int) int {
	if h.Backlog == nil {
		return -1
	}
	return len(h.Backlog[s][k]) - 1
}

// HorizonPlan is the joint decision for the window.
type HorizonPlan struct {
	// Slots[t] is the dispatch executed in slot t (rates are by serve
	// slot; deferred work appears in the slot it is served, not the slot
	// it arrived).
	Slots []*Plan
	// Objective is the window's total predicted net profit.
	Objective float64
	// DeferredFraction[k] is the share of type k's served volume that was
	// buffered at least one slot.
	DeferredFraction []float64
}

// horizonVar indexes one x variable of the joint LP.
type horizonVar struct {
	ts, ci, s, d int // serve slot, commodity index at ts, front-end, defer
}

// backlogVar indexes one carried-backlog dispatch variable: bucket
// (s, r) of the commodity's class served during window slot ts.
type backlogVar struct {
	ts, ci, s, r int
}

// deferHoldEps is a tiny per-slot holding cost ($ per unit rate) charged
// to every deferred-service variable (new work served d > 0 slots after
// arrival, or carried backlog served at ts > 0). It breaks objective
// ties toward serving now: with flat prices, deferring and serving are
// otherwise equal-profit and the simplex could park work in the buffer
// for nothing, stranding it when the run ends. It is orders of magnitude
// below any real price swing, so genuine arbitrage is unaffected, and
// serve-now variables (d = 0, and zero-defer classes entirely) carry no
// penalty — the zero-defer LP is bit-identical to before.
const deferHoldEps = 1e-6

// PlanHorizon solves the joint multi-slot LP and splits the solution into
// per-slot plans with consolidated server counts. Every call solves cold;
// use a HorizonPlanner to warm-start a rolling sequence of windows.
func PlanHorizon(h *HorizonInput, opts lp.Options) (*HorizonPlan, error) {
	return (&HorizonPlanner{EngineOptions: EngineOptions{LPOpts: opts}}).Plan(h)
}

// HorizonPlanner plans successive horizon windows with warm-started
// re-solves: a rolling-horizon controller re-plans a shifted window every
// slot, and consecutive windows share most of their structure, so the
// previous window's optimal basis is imported as the starting vertex.
// Results are audited exactly like the slot planners' (lp.Solver); with
// WarmStart false every window solves cold. Like the slot planners, a
// HorizonPlanner must be driven by one caller at a time.
type HorizonPlanner struct {
	// EngineOptions carries the solver knobs: WarmStart seeds each
	// window's LP from the previous window's exported basis. Horizon LPs
	// couple H slots in one model, so they cross the solver's sparse row
	// threshold quickly.
	EngineOptions
}

// NewHorizonPlanner returns a horizon planner with warm starts on.
func NewHorizonPlanner() *HorizonPlanner {
	return &HorizonPlanner{EngineOptions: EngineOptions{WarmStart: true}}
}

// Plan solves one window, reusing the planner's retained solver state:
// the window's one LP is the capture solve of the planner's warm state.
func (hp *HorizonPlanner) Plan(h *HorizonInput) (*HorizonPlan, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	b := buildHorizonLP(h)
	w := hp.claim(true)
	defer w.release()
	res, _, _, err := w.solveModel(b.model, hp.LPOpts, true, nil, nil, false)
	if err != nil {
		return nil, fmt.Errorf("core: horizon LP failed: %w", err)
	}
	return b.extract(h, res)
}

// horizonLP is the joint window LP with the handles needed to read the
// solution back out per slot.
type horizonLP struct {
	model *lp.Model
	comms [][]commodity
	xIdx  map[horizonVar]int
	bIdx  map[backlogVar]int
	fVar  [][]int // [t][ci]
}

// buildHorizonLP assembles the joint LP over the window.
func buildHorizonLP(h *HorizonInput) *horizonLP {
	sys := h.Sys
	T := sys.Slot()
	K, S := sys.K(), sys.S()
	H := len(h.Arrivals)

	// Admissible commodities per serve slot (prices differ per slot).
	comms := make([][]commodity, H)
	for t := 0; t < H; t++ {
		in := &Input{Sys: sys, Arrivals: h.Arrivals[t], Prices: h.Prices[t]}
		// Admit by the best coefficient over the whole window's arrivals;
		// the per-slot arrivals only matter for budgets.
		comms[t] = capReservations(in, admissibleCommodities(in, nil))
	}

	m := lp.NewModel()
	// Names carry t/d/r, so they are spelled afresh each build, by
	// appending into one buffer (see lpName).
	var buf [48]byte
	name := func(prefix string) lpName { return append(buf[:0], prefix...) }
	xIdx := map[horizonVar]int{}
	bIdx := map[backlogVar]int{}
	fVar := make([][]int, H) // [t][ci]
	for t := 0; t < H; t++ {
		fVar[t] = make([]int, len(comms[t]))
		for ci, c := range comms[t] {
			fVar[t][ci] = m.AddVariable(string(name("phi").tag("_t", t).tag("_k", c.k).tag("_q", c.q).tag("_l", c.l)), 0)
			maxD := h.MaxDefer[c.k]
			for s := 0; s < S; s++ {
				coef := T * sys.UnitProfit(c.k, s, c.l, c.utility, h.Prices[t][c.l])
				for d := 0; d <= maxD && d <= t; d++ {
					v := horizonVar{ts: t, ci: ci, s: s, d: d}
					xIdx[v] = m.AddVariable(string(name("x").tag("_t", t).tag("_k", c.k).tag("_q", c.q).tag("_s", s).tag("_l", c.l).tag("_d", d)),
						coef-deferHoldEps*float64(d))
				}
				// Carried-backlog dispatch: bucket (s, r) may run in any
				// slot up to its remaining deadline r.
				for r := 0; r <= h.backlogDepth(s, c.k); r++ {
					if t > r || h.backlogAt(s, c.k, r) <= 0 {
						continue
					}
					v := backlogVar{ts: t, ci: ci, s: s, r: r}
					bIdx[v] = m.AddVariable(string(name("b").tag("_t", t).tag("_k", c.k).tag("_q", c.q).tag("_s", s).tag("_l", c.l).tag("_r", r)),
						coef-deferHoldEps*float64(t))
				}
			}
		}
	}

	// Capacity per (serve slot, commodity): M·C·μ·φ − Σ_{s,d} x ≥ M/D.
	for t := 0; t < H; t++ {
		for ci, c := range comms[t] {
			dc := &sys.Centers[c.l]
			n := float64(dc.Servers)
			terms := []lp.Term{{Var: fVar[t][ci], Coef: n * dc.Capacity * dc.ServiceRate[c.k]}}
			for s := 0; s < S; s++ {
				for d := 0; d <= h.MaxDefer[c.k] && d <= t; d++ {
					terms = append(terms, lp.Term{Var: xIdx[horizonVar{t, ci, s, d}], Coef: -1})
				}
				for r := t; r <= h.backlogDepth(s, c.k); r++ {
					if vi, ok := bIdx[backlogVar{t, ci, s, r}]; ok {
						terms = append(terms, lp.Term{Var: vi, Coef: -1})
					}
				}
			}
			m.AddConstraint(string(name("cap").tag("_t", t).tag("_k", c.k).tag("_q", c.q).tag("_l", c.l)), terms, lp.GE, n/c.deadline)
		}
	}
	// Backlog budgets per (front-end, type, bucket): the bucket's volume
	// bounds its total dispatch over the slots its deadline still allows.
	for s := 0; s < S; s++ {
		for k := 0; k < K; k++ {
			for r := 0; r <= h.backlogDepth(s, k); r++ {
				if h.backlogAt(s, k, r) <= 0 {
					continue
				}
				var terms []lp.Term
				for t := 0; t < H && t <= r; t++ {
					for ci, c := range comms[t] {
						if c.k != k {
							continue
						}
						if vi, ok := bIdx[backlogVar{t, ci, s, r}]; ok {
							terms = append(terms, lp.Term{Var: vi, Coef: 1})
						}
					}
				}
				if len(terms) > 0 {
					m.AddConstraint(string(name("bud").tag("_s", s).tag("_k", k).tag("_r", r)), terms, lp.LE, h.backlogAt(s, k, r))
				}
			}
		}
	}
	// Arrival budgets per (arrival slot, front-end, type): work arriving
	// at ta may be served at ts ∈ [ta, ta+MaxDefer].
	for ta := 0; ta < H; ta++ {
		for s := 0; s < S; s++ {
			for k := 0; k < K; k++ {
				var terms []lp.Term
				for ts := ta; ts < H && ts <= ta+h.MaxDefer[k]; ts++ {
					for ci, c := range comms[ts] {
						if c.k != k {
							continue
						}
						terms = append(terms, lp.Term{Var: xIdx[horizonVar{ts, ci, s, ts - ta}], Coef: 1})
					}
				}
				if len(terms) > 0 {
					m.AddConstraint(string(name("arr").tag("_t", ta).tag("_s", s).tag("_k", k)), terms, lp.LE, h.Arrivals[ta][s][k])
				}
			}
		}
	}
	// Share caps per (slot, center).
	for t := 0; t < H; t++ {
		for l := 0; l < sys.L(); l++ {
			var terms []lp.Term
			for ci, c := range comms[t] {
				if c.l == l {
					terms = append(terms, lp.Term{Var: fVar[t][ci], Coef: 1})
				}
			}
			if len(terms) > 0 {
				m.AddConstraint(string(name("share").tag("_t", t).tag("_l", l)), terms, lp.LE, 1)
			}
		}
	}

	return &horizonLP{model: m, comms: comms, xIdx: xIdx, bIdx: bIdx, fVar: fVar}
}

// extract splits an optimal window solution into per-slot plans.
func (b *horizonLP) extract(h *HorizonInput, res *lp.Result) (*HorizonPlan, error) {
	sys := h.Sys
	K, S := sys.K(), sys.S()
	H := len(h.Arrivals)
	comms := b.comms
	out := &HorizonPlan{DeferredFraction: make([]float64, K)}
	servedTotal := make([]float64, K)
	deferred := make([]float64, K)
	for t := 0; t < H; t++ {
		rates := make([][]float64, len(comms[t]))
		for ci := range comms[t] {
			rates[ci] = make([]float64, S)
			for s := 0; s < S; s++ {
				for d := 0; d <= h.MaxDefer[comms[t][ci].k] && d <= t; d++ {
					v := res.Value(b.xIdx[horizonVar{t, ci, s, d}])
					if v <= 0 {
						continue
					}
					rates[ci][s] += v
					servedTotal[comms[t][ci].k] += v
					if d > 0 {
						deferred[comms[t][ci].k] += v
					}
				}
				// Carried backlog was buffered at least one slot before the
				// window opened, so it always counts as deferred service.
				for r := t; r <= h.backlogDepth(s, comms[t][ci].k); r++ {
					vi, ok := b.bIdx[backlogVar{t, ci, s, r}]
					if !ok {
						continue
					}
					v := res.Value(vi)
					if v <= 0 {
						continue
					}
					rates[ci][s] += v
					servedTotal[comms[t][ci].k] += v
					deferred[comms[t][ci].k] += v
				}
			}
		}
		in := &Input{Sys: sys, Arrivals: h.Arrivals[t], Prices: h.Prices[t]}
		plan, err := planFromRates(in, comms[t], rates)
		if err != nil {
			return nil, fmt.Errorf("core: horizon slot %d: %w", t, err)
		}
		plan.Objective = planObjective(in, plan)
		out.Objective += plan.Objective
		out.Slots = append(out.Slots, plan)
	}
	for k := 0; k < K; k++ {
		if servedTotal[k] > 0 {
			out.DeferredFraction[k] = deferred[k] / servedTotal[k]
		}
	}
	return out, nil
}

// VerifyHorizon checks the physical invariants of a horizon plan: per-slot
// share/deadline feasibility (via the per-slot checks of Verify, with the
// arrival budget replaced by the window-level deferral budget) and that no
// (type, front-end) serves more over the window than arrived, respecting
// each deferral allowance via a flow check.
func VerifyHorizon(h *HorizonInput, hp *HorizonPlan, tol float64) error {
	sys := h.Sys
	if len(hp.Slots) != len(h.Arrivals) {
		return fmt.Errorf("core: horizon plan has %d slots, input %d", len(hp.Slots), len(h.Arrivals))
	}
	for t, plan := range hp.Slots {
		// Reuse Verify's share/deadline/server checks with a relaxed
		// arrival budget: anything arrived in the reachable window, plus
		// any carried backlog bucket whose deadline still admits slot t.
		relaxed := make([][]float64, sys.S())
		for s := range relaxed {
			relaxed[s] = make([]float64, sys.K())
			for k := 0; k < sys.K(); k++ {
				for ta := t - h.MaxDefer[k]; ta <= t; ta++ {
					if ta >= 0 {
						relaxed[s][k] += h.Arrivals[ta][s][k]
					}
				}
				for r := t; r <= h.backlogDepth(s, k); r++ {
					relaxed[s][k] += h.backlogAt(s, k, r)
				}
			}
		}
		in := &Input{Sys: sys, Arrivals: relaxed, Prices: h.Prices[t]}
		if err := Verify(in, plan, tol); err != nil {
			return fmt.Errorf("core: horizon slot %d: %w", t, err)
		}
	}
	// Window-level conservation per (type, front-end): cumulative served
	// by slot t must never exceed cumulative arrived by slot t plus the
	// carried backlog, and likewise in total.
	for k := 0; k < sys.K(); k++ {
		for s := 0; s < sys.S(); s++ {
			var carried float64
			for r := 0; r <= h.backlogDepth(s, k); r++ {
				carried += h.backlogAt(s, k, r)
			}
			arrived, served := carried, 0.0
			for t := range hp.Slots {
				arrived += h.Arrivals[t][s][k]
				served += hp.Slots[t].ServedFrom(k, s)
				if served > arrived+tol*(1+math.Abs(arrived)) {
					return fmt.Errorf("core: type %d front-end %d served %g > arrived+backlog %g by slot %d",
						k, s, served, arrived, t)
				}
			}
		}
	}
	return nil
}
