package core

import (
	"profitlb/internal/lp"
	"profitlb/internal/obs"
)

// SearchStats carries the engine's diagnostic counters from one Plan
// call. Like the planner that fills it, it must not be shared between
// concurrent Plan calls.
type SearchStats struct {
	// Solves counts dispatch LPs actually handed to the simplex solver.
	Solves int64
	// CacheHits is 0: no search asks twice (DESIGN §7.3).
	//
	// Deprecated: bench/slots.go still reads it; ROADMAP item 8 deletes it.
	CacheHits int64
	// Bounded counts search moves rejected by the incumbent's dual bound
	// before any LP was built (see prices.bound).
	Bounded int64
	// SolveErrors counts solver invocations that returned an error.
	SolveErrors int64
	// WarmHits counts LP solves answered by a warm path (hot re-solve,
	// trial or fresh LU start) of the planner's warm-start machinery;
	// WarmFallbacks counts warm attempts that fell back to the cold
	// two-phase solve. Both are zero when WarmStart is off.
	WarmHits      int64
	WarmFallbacks int64
	// WarmPivots and ColdPivots split the simplex pivot spend of the Plan
	// call by path — the raw material of the warm-speedup benchmarks.
	WarmPivots int64
	ColdPivots int64
	// SparseSolves counts warm solves answered by the sparse revised
	// simplex (zero when every LP is below the solver's row threshold).
	SparseSolves int64
	// AbandonedPivots counts pivots burned on warm attempts that were
	// abandoned for the cold path — work done and thrown away, which
	// WarmPivots and ColdPivots both exclude.
	AbandonedPivots int64
	// ImportPivots counts the crash work of the call's fresh starts
	// (lp.Outcome.ImportPivots), which the three pivot counts above leave
	// out: what a held chain pays when its structure changed.
	ImportPivots int64
	// ModelRebuilds counts held-chain solves (the capture, and a refine
	// call's greedy start) whose dispatch LP could not be refreshed in
	// place — the first slot, then a fault, a changed admitted set or a
	// toggled floor — and so was rebuilt and started over: why a slot with
	// the usual pivots still ran slow. Zero when WarmStart is off.
	ModelRebuilds int64
	// Trials counts solves answered on the hot unit: a move's survivor
	// solved hot from its incumbent's checkpointed kernel, its set a numbers
	// change of the capture's LP (see heldUnit). Zero on a slot whose moves
	// the dual bound all turns down, and when WarmStart is off.
	Trials int64
	// Cuts counts the trials stopped by their cutoff: a move whose dual
	// bound fell below the incumbent's objective while it was being
	// solved, answered as not improving with its repair cut short
	// (lp.Solver.Trial). They are Trials too.
	Cuts int64
	// Refactors counts the times a sparse kernel rebuilt its basis factors
	// in place during the call's solves (lp.Outcome.Refactors): a full eta
	// file or a hot chain at its drift bound, each a basis' worth of
	// eliminated columns in a slot that crashed nothing. Zero when
	// WarmStart is off.
	Refactors int64
}

// engine is the per-Plan-call execution context of the plan search: the
// call's solver counters, and what is constant for the call — the Input,
// the LP layout, the solver options and the claimed warm state. The search
// it serves is one sequential walk on the caller's goroutine, and every
// request it makes is a solve. It never outlives the Plan call that opened
// it.
type engine struct {
	in        *Input
	perServer bool
	opts      lp.Options
	// single marks a call whose capture is its one request (a refine-off
	// Optimized): its rates go to the held rows.
	single bool
	// names spells the aggregated layout's names from the planner's table.
	names *dispatchNames
	// warm, when non-nil, warm-starts every solve from the owning
	// planner's retained basis (see warm.go); nil solves cold.
	warm *warmState
	// held is raised by prologue around the call's first solve (capture)
	// and around Refine's greedy start (greedyStart): the first request
	// while it is up takes that held chain, so a move's LP never lands on
	// it.
	held chain
	// priced makes a solve keep its shadow prices and final basis. It is up
	// while the planner runs a first-improvement search, which bounds each
	// move off its incumbent's prices and solves the survivors as trials
	// from its kernel (see heldUnit), and lowered for solves nothing
	// searches from (branch-and-bound's tree). The per-server layout keeps
	// none (see prices.bound).
	priced bool
	seeds  uint64 // identities handed to priced solutions
	// universe is the call's admissible list, admitted under floors, over
	// which admit has the hot unit's LP built (see heldUnit).
	universe []commodity
	floors   []float64
	// scratch is the owning planner's held storage, its route pass priced
	// for in by open.
	scratch *planScratch
	// n counts the call's solver work; close publishes it.
	n     SearchStats
	stats *SearchStats
	// sc streams the engine's solver counters to the observability
	// layer when the owning planner carries a scope; the Input's slot and
	// epoch and the planner label the summary event. Nil-safe like
	// everything in obs.
	sc      *obs.Scope
	planner string
	// onSolve is the owning planner's warm.onSolve, which tests set.
	onSolve func(comms []commodity, floors []float64, from *prices, sol solution, err error)
}

// open starts the engine for one Plan call and claims the planner's warm
// state for it; close reports. The per-server layout changes
// with the commodity set too quickly to hold, so it solves cold. searches
// says the planner will run a first-improvement search over the call's
// solved subsets.
func (e *EngineOptions) open(in *Input, planner string, perServer, searches bool) *engine {
	e.scratch.routes.price(in)
	return &engine{
		in: in, perServer: perServer, opts: e.LPOpts, priced: searches && !perServer,
		warm: e.claim(!perServer), stats: e.Stats, sc: e.Obs, planner: planner,
		names: e.namesFor(in.Sys), scratch: &e.scratch, onSolve: e.warm.onSolve,
	}
}

// planScratch is what a planner's Plan calls refill, each with [:0], in
// place of the lists a call used to allocate: the call's admission (the
// route pass and the admissible and capped lists, see admission),
// pick's per-vector subset and its capped copy, the rates of a single
// call's capture and planFromRates' read-out.
// Nothing in it is read before the call that fills it has written it, so
// a planner plans alike with it dropped before every call
// (TestHeldListsAreInvisible).
type planScratch struct {
	admission
	pick, kept []commodity
	rates      rateRows
	read       readout
}

// admit lists the call's admissible commodities and caps them, into the
// planner's held lists (see admission.admit): the full list is the call's
// universe.
func (e *engine) admit(floors []float64) (full, capped []commodity) {
	full, capped = e.scratch.admit(e.in, floors)
	e.universe, e.floors = full, floors
	return full, capped
}

// prologue runs solve's first request on the held chain c: the call's
// first solve, the designated capture solve, re-solves on the retained hot
// chain, which the next slot's capture re-solves in turn; Refine's greedy
// start re-solves on its own. The window is closed explicitly in case the
// subset was empty and nothing was requested.
func (e *engine) prologue(c chain, solve func() (assignment, error)) (assignment, error) {
	e.held = c
	defer func() { e.held = spare }()
	return solve()
}

// solution is one solved dispatch LP as the searches see it: read-only.
// A cut one is a trial its cutoff stopped: obj is the dual bound it
// stopped at, above the optimum and below the cutoff, and there are no
// rates or prices — it reads as a move that does not improve.
type solution struct {
	rates [][]float64
	obj   float64
	px    *prices // nil unless solved on a priced engine
}

// solve solves the dispatch LP of comms, no search asking twice (DESIGN
// §7.3). comms, in canonical sortCommodities order, must not change while
// the call lasts: a priced solution keeps it as its set. from, the prices
// of the incumbent the set neighbours, makes the request a move's
// survivor, solved as a trial from that incumbent's kernel (see heldUnit).
// cutoff (noCutoff: none) is what the optimum must beat: a trial may stop
// once it cannot (a cut solution).
func (e *engine) solve(comms []commodity, floors []float64, from *prices, cutoff float64) (solution, error) {
	if len(comms) == 0 {
		if floorsActive(e.in, floors) {
			return solution{}, lp.ErrInfeasible
		}
		return solution{}, nil
	}
	c := e.held
	e.held = spare
	e.n.Solves++
	var rows *rateRows // nil: a slab of the solution's own, which a search may keep
	if e.single {
		rows = &e.scratch.rates
	}
	var sol solution
	d, at, res, err := e.solveLP(c, comms, floors, from, cutoff)
	switch {
	case err != nil:
		e.n.SolveErrors++
	case res.Status == lp.Cutoff:
		sol.obj = res.Objective
	default:
		sol.rates, sol.obj = d.extractRates(res, rows, at), res.Objective
		if e.priced {
			sol.px = d.priceOut(e.in, res, comms, at)
			if e.warm != nil { // a search may go on from it: number it
				e.seeds++
				sol.px.seed, sol.px.comms = e.seeds, comms
				if at != nil {
					e.warm.hot.last = e.seeds
				}
			}
		}
	}
	if e.onSolve != nil {
		e.onSolve(comms, floors, from, sol, err)
	}
	return sol, err
}

// bounded reports, and counts, a move off the incumbent inc — the
// commodity at position out of its set removed (-1: none), add admitted
// (nil: none) — that inc's shadow prices bound at no improvement: the
// search's accept test would turn its LP's optimum down, so the LP is not
// built. A move with no bound (see prices.bound) is not bounded.
func (e *engine) bounded(inc *assignment, out int, add *commodity) bool {
	b, ok := inc.px.bound(e.in, inc.obj, out, add)
	if !ok || b > inc.obj+improveTol {
		return false
	}
	e.n.Bounded++
	return true
}

// solveLP solves one dispatch LP in the call's layout: a move's
// survivor (from: its incumbent's prices) as a trial on the hot unit if it
// can, the capture on the hot unit's LP of the call's universe (see
// heldUnit), otherwise comms' own LP built on chain c's unit, started
// fresh. The LP and its handles are the unit's, good until
// its next build; at lists comms' positions in the LP's commodities when
// it was the hot unit's (nil: the LP is comms' own).
func (e *engine) solveLP(c chain, comms []commodity, floors []float64, from *prices, cutoff float64) (*dispatchLP, []int, *lp.Result, error) {
	if res, at := e.trial(comms, floors, from, cutoff); res != nil {
		return &e.warm.hot.d, at, res, nil
	}
	u := e.warm.unit(c)
	var at []int
	if c == capture && e.warm != nil {
		at = e.warm.hot.hold(e.in, e.universe, comms, floors, e.names)
	} else {
		u.d.build(e.in, comms, floors, e.perServer, e.names)
	}
	res, err := e.run(u.d.model, c, u.d.rebuilt, &u.sv)
	return &u.d, at, res, err
}

// run hands a built LP — a slot's, or a horizon window's — to the simplex
// through the call's warm state (cold when there is none) and books how
// the solve went. rebuilt says a held chain's model had to be built again.
func (e *engine) run(m *lp.Model, c chain, rebuilt bool, sv *lp.Solver) (*lp.Result, error) {
	if c != spare && e.warm != nil && rebuilt {
		e.n.ModelRebuilds++
	}
	res, out, err := e.warm.solveModel(m, e.opts, c, sv)
	e.book(out, true)
	return res, err
}

// book adds one solver call's work to the call's counters; a call that
// answered a request also counts as a warm hit or a fallback.
func (e *engine) book(out lp.Outcome, answered bool) {
	if out.FellBack {
		e.n.WarmFallbacks++
	} else if answered && out.Path != "cold" {
		e.n.WarmHits++
	}
	if answered && out.Sparse {
		e.n.SparseSolves++
	}
	e.n.WarmPivots += int64(out.WarmPivots)
	e.n.ColdPivots += int64(out.ColdPivots)
	e.n.AbandonedPivots += int64(out.AbandonedPivots)
	e.n.ImportPivots += int64(out.ImportPivots)
	e.n.Refactors += int64(out.Refactors)
}

// close copies the engine's solver counters into the planner's stats
// sink and, when the planner carries an observability scope, publishes
// them as metrics plus one engine summary event per Plan call (every
// side is nil-safe).
func (e *engine) close() {
	if e.stats != nil {
		*e.stats = e.n
	}
	if !e.sc.Enabled() {
		return
	}
	n := &e.n
	counters := [...]struct {
		v           int64
		metric, key string
	}{
		{n.Solves, "core_lp_solves_total", "lpSolves"},
		{n.SolveErrors, "core_lp_solve_errors_total", "lpSolveErrors"},
		{n.Bounded, "core_lp_bounded_total", "lpBounded"},
		// From here on, published only under a warm state.
		{n.WarmHits, "core_lp_warm_hits_total", "lpWarmHits"},
		{n.WarmFallbacks, "core_lp_warm_fallbacks_total", "lpWarmFallbacks"},
		{n.WarmPivots, "core_lp_warm_pivots_total", "lpWarmPivots"},
		{n.ColdPivots, "core_lp_cold_pivots_total", "lpColdPivots"},
		{n.SparseSolves, "core_lp_sparse_solves_total", "lpSparseSolves"},
		{n.AbandonedPivots, "core_lp_abandoned_pivots_total", "lpAbandonedPivots"},
		{n.ImportPivots, "core_lp_import_pivots_total", "lpImportPivots"},
		{n.ModelRebuilds, "core_lp_model_rebuilds_total", "lpModelRebuilds"},
		{n.Trials, "core_lp_trials_total", "lpTrials"},
		{n.Cuts, "core_lp_cuts_total", "lpCuts"},
		{n.Refactors, "core_lp_refactors_total", "lpRefactors"},
	}
	published := counters[:]
	if e.warm == nil {
		published = counters[:3]
	}
	values := make(map[string]float64, len(published))
	for _, c := range published {
		e.sc.Counter(c.metric).Add(c.v)
		values[c.key] = float64(c.v)
	}
	e.sc.Emit(obs.Event{Kind: obs.KindEngine, Slot: e.in.Slot, Epoch: e.in.Epoch, Planner: e.planner, Values: values})
}
