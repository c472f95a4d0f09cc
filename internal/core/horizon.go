package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"profitlb/internal/datacenter"
	"profitlb/internal/linalg"
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
		if err := h.slot(t).Validate(); err != nil {
			return fmt.Errorf("core: horizon slot %d: %w", t, err)
		}
	}
	if h.Backlog != nil && len(h.Backlog) != h.Sys.S() {
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
	return nil
}

// buckets returns the backlog carried for (s, k), nil when none.
func (h *HorizonInput) buckets(s, k int) []float64 {
	if h.Backlog == nil {
		return nil
	}
	return h.Backlog[s][k]
}

// depth is how many buckets the window LP budgets for (s, k): one per
// slot of the class's allowance, since a rolling controller's list grows
// and drains inside it from window to window, and as many as are carried.
func (h *HorizonInput) depth(s, k int) int { return max(h.MaxDefer[k], len(h.buckets(s, k))) }

// slot is window slot t as a slot planner's input.
func (h *HorizonInput) slot(t int) *Input {
	return &Input{Sys: h.Sys, Arrivals: h.Arrivals[t], Prices: h.Prices[t]}
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
	// buffered at least one slot: per slot, the budget the LP moved into it
	// up to what it served. It is an attribution, not a quantity of the
	// optimum — alternate optima of equal Objective split a slot's service
	// between its own arrivals and moved budget differently.
	DeferredFraction []float64
}

// deferHoldEps is a tiny per-slot holding cost ($ per unit rate) charged
// to every column that defers service (a transfer, per slot of its gap; a
// backlog column, per slot into the window). It breaks objective ties
// toward serving now: with flat prices, deferring and serving are
// otherwise equal-profit and the simplex could park work in the buffer
// for nothing, stranding it when the run ends. It is orders of magnitude
// below any real price swing, so genuine arbitrage is unaffected, and a
// slot's own λ columns carry no penalty.
const deferHoldEps = 1e-6

// PlanHorizon solves the joint multi-slot LP and splits the solution into
// per-slot plans with consolidated server counts. Every call solves cold;
// use a HorizonPlanner to warm-start a rolling sequence of windows.
func PlanHorizon(h *HorizonInput, opts lp.Options) (*HorizonPlan, error) {
	return (&HorizonPlanner{EngineOptions: EngineOptions{LPOpts: opts}}).Plan(h)
}

// HorizonPlanner plans successive horizon windows with warm-started
// re-solves: a rolling-horizon controller re-plans a shifted window every
// slot, and consecutive windows usually share their structure, so the
// planner holds the window's LP, refreshes its numbers and re-solves it
// hot; when the structure did change, the window starts over, as any fresh
// solve does, and is held from there. Results are audited exactly like the
// slot planners' (lp.Solver); with WarmStart false every window solves
// cold. Like the slot planners, a HorizonPlanner must be driven by one
// caller at a time.
type HorizonPlanner struct {
	// EngineOptions carries the solver knobs, WarmStart above all. Horizon
	// LPs couple H slots in one model, so they cross the solver's sparse
	// row threshold quickly.
	EngineOptions
}

// NewHorizonPlanner returns a horizon planner with warm starts on.
func NewHorizonPlanner() *HorizonPlanner {
	return &HorizonPlanner{EngineOptions: EngineOptions{WarmStart: true}}
}

// Plan solves one window. The window's LP is the planner's capture solve:
// held in the hot solve unit while its structure stands (a cold call's is
// fresh), refreshed in place and re-solved
// hot on the retained kernel, its counters booked and published like a
// slot planner's (Stats, Obs; a window has no absolute slot, so the engine
// event carries slot 0).
func (hp *HorizonPlanner) Plan(h *HorizonInput) (*HorizonPlan, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	eng := hp.open(h.slot(0), "horizon", false, false)
	defer eng.close()
	w := &eng.warm.unit(capture).w
	w.build(h, eng.names)
	eng.n.Solves++
	res, err := eng.run(&w.model, capture, w.rebuilt, nil)
	if err != nil {
		eng.n.SolveErrors++
		return nil, fmt.Errorf("core: horizon LP failed: %w", err)
	}
	return w.extract(h, res)
}

// windowLP is the window's LP as a composition: one dispatch-LP block a
// slot, each written into the shared model by the slot planners' own
// structure and numbers passes (block t's arrival rows keep slot t's
// arrivals as right-hand side), and the coupling this file owns, which
// moves arrival budget between blocks (DESIGN.md §14.1). Like a
// dispatchLP's, the structure is rebuilt only when what it was built from
// changed — the window length, the allowances, a bucket list's depth, any
// block's shape — and otherwise only numbers move, so the solver that
// factorized the model re-solves hot.
type windowLP struct {
	model  lp.Model
	blocks []dispatchLP
	ins    []Input
	// lists[t] is block t's admission, route pass and commodity lists,
	// refilled every build (block t's comms are its capped list); rates and
	// read are extract's held read-out.
	lists []admission
	rates rateRows
	read  readout
	// The coupling: the columns of (front-end s, class k) at moves[s·K+k],
	// and every row that bounds what leaves a source.
	K, H           int
	moves          [][]move
	budgets        []budget
	shape, scratch []int
	rebuilt        bool
}

// move is a coupling column of one (s, k): arrival budget taken from
// source src — window slot src < H, or carried bucket src−H — and served
// in slot to. It is +1 in a slot source's arrival row and −1 in slot to's.
// A transfer out of slot t reaches t+g, g ≤ MaxDefer[k], at cost
// −deferHoldEps·g; bucket r reaches every slot t ≤ r at −deferHoldEps·t.
type move struct{ col, src, to int }

// budget is a coupling row: the moves out of source src of (s, k) sum to at
// most what it holds, so budget that arrived by transfer is not forwarded
// again and a bucket — budgeted for empty or not — is served once.
type budget struct{ row, s, k, src int }

// holds is what source src of (s, k) has to give.
func (h *HorizonInput) holds(s, k, src int) float64 {
	if src < len(h.Arrivals) {
		return h.Arrivals[src][s][k]
	}
	if r := src - len(h.Arrivals); r < len(h.buckets(s, k)) {
		return h.buckets(s, k)[r]
	}
	return 0
}

// build makes w the LP of window h, over the LP it held before.
func (w *windowLP) build(h *HorizonInput, names *dispatchNames) {
	// What the coupling's structure is built from; the blocks record theirs.
	S, K := h.Sys.S(), h.Sys.K()
	w.K, w.H = K, len(h.Arrivals)
	shape := append(append(w.scratch[:0], w.H, S), h.MaxDefer...)
	for s := 0; s < S; s++ {
		for k := 0; k < K; k++ {
			shape = append(shape, h.depth(s, k))
		}
	}
	changed := !slices.Equal(shape, w.shape)
	w.shape, w.scratch, w.moves = shape, w.shape, linalg.Resized(w.moves, S*K)
	w.ins, w.blocks, w.lists = linalg.Resized(w.ins, w.H), linalg.Resized(w.blocks, w.H), linalg.Resized(w.lists, w.H)
	for t := range w.blocks {
		w.ins[t] = *h.slot(t)
		w.lists[t].routes.price(&w.ins[t])
		_, w.blocks[t].comms = w.lists[t].admit(&w.ins[t], nil)
		changed = w.blocks[t].reshape(&w.ins[t], nil, false, names) || changed
	}
	if w.rebuilt = changed; changed {
		w.model.Reset()
		w.columns(h)
		for t := range w.blocks {
			w.blocks[t].structure(&w.ins[t], nil, false, block{model: &w.model, prefix: fmt.Sprintf("t%d_", t), arr: w.arrTerms(t)})
		}
		w.rows(h)
	}
	for t := range w.blocks {
		w.blocks[t].numbers(&w.ins[t], nil)
	}
	for _, b := range w.budgets {
		w.model.SetRHS(b.row, h.holds(b.s, b.k, b.src))
	}
}

// columns adds the coupling's columns, before any block: a block's arrival
// rows name them.
func (w *windowLP) columns(h *HorizonInput) {
	for s := 0; s < h.Sys.S(); s++ {
		for k := 0; k < w.K; k++ {
			mv := w.moves[s*w.K+k][:0]
			for t := 0; t < w.H; t++ {
				for g := 1; g <= h.MaxDefer[k] && t+g < w.H; g++ {
					mv = append(mv, move{w.model.AddVariable(fmt.Sprintf("fwd_k%d_s%d_t%d_d%d", k, s, t, g), -deferHoldEps*float64(g)), t, t + g})
				}
			}
			for r := 0; r < h.depth(s, k); r++ {
				for t := 0; t <= r && t < w.H; t++ {
					mv = append(mv, move{w.model.AddVariable(fmt.Sprintf("back_k%d_s%d_r%d_t%d", k, s, r, t), -deferHoldEps*float64(t)), w.H + r, t})
				}
			}
			w.moves[s*w.K+k] = mv
		}
	}
}

// arrTerms is block t's block.arr: what the coupling adds to the arrival
// row of class k at front-end s — budget forwarded out of slot t, and
// budget a transfer or a bucket brings into it.
func (w *windowLP) arrTerms(t int) func(k, s int, terms []lp.Term) []lp.Term {
	return func(k, s int, terms []lp.Term) []lp.Term {
		for _, mv := range w.moves[s*w.K+k] {
			if mv.src == t {
				terms = append(terms, lp.Term{Var: mv.col, Coef: 1})
			} else if mv.to == t {
				terms = append(terms, lp.Term{Var: mv.col, Coef: -1})
			}
		}
		return terms
	}
}

// rows adds the coupling's own rows, one per source a column leaves,
// right-hand sides left to build.
func (w *windowLP) rows(h *HorizonInput) {
	var terms []lp.Term
	w.budgets = w.budgets[:0]
	for s := 0; s < h.Sys.S(); s++ {
		for k := 0; k < w.K; k++ {
			for src := 0; src < w.H+h.depth(s, k); src++ {
				terms = terms[:0]
				for _, mv := range w.moves[s*w.K+k] {
					if mv.src == src {
						terms = append(terms, lp.Term{Var: mv.col, Coef: 1})
					}
				}
				if len(terms) == 0 {
					continue
				}
				name := fmt.Sprintf("bud_k%d_s%d_r%d", k, s, src-w.H)
				if src < w.H {
					name = fmt.Sprintf("out_k%d_s%d_t%d", k, s, src)
				}
				w.budgets = append(w.budgets, budget{w.model.AddConstraint(name, terms, lp.LE, 0), s, k, src})
			}
		}
	}
}

// extract splits an optimal window solution into per-slot plans. A slot's
// deferred service is the budget that reached it through the coupling — by
// transfer, or from the backlog, which was buffered at least one slot
// before the window opened — up to what the slot served.
func (w *windowLP) extract(h *HorizonInput, res *lp.Result) (*HorizonPlan, error) {
	out := &HorizonPlan{DeferredFraction: make([]float64, w.K)}
	served, deferred := make([]float64, w.K), make([]float64, w.K)
	for t := range w.blocks {
		d, in := &w.blocks[t], &w.ins[t]
		plan, err := planFromRates(in, d.comms, d.extractRates(res, &w.rates, nil), &w.read, nil)
		if err != nil {
			return nil, fmt.Errorf("core: horizon slot %d: %w", t, err)
		}
		plan.Objective = planObjective(in, plan, &w.lists[t].routes)
		out.Objective += plan.Objective
		out.Slots = append(out.Slots, plan)
		for sk, moves := range w.moves {
			s, k, arrived := sk/w.K, sk%w.K, 0.0
			for _, mv := range moves {
				if mv.to == t {
					arrived += max(0, res.Value(mv.col))
				}
			}
			served[k] += plan.ServedFrom(k, s)
			deferred[k] += min(arrived, plan.ServedFrom(k, s))
		}
	}
	for k := range served {
		if served[k] > 0 {
			out.DeferredFraction[k] = deferred[k] / served[k]
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
				for ta := max(0, t-h.MaxDefer[k]); ta <= t; ta++ {
					relaxed[s][k] += h.Arrivals[ta][s][k]
				}
				for r, v := range h.buckets(s, k) {
					if r >= t {
						relaxed[s][k] += v
					}
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
			for _, v := range h.buckets(s, k) {
				carried += v
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
