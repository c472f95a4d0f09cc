package core

import (
	"profitlb/internal/lp"
	"profitlb/internal/obs"
)

// engine is the per-Plan-call execution context of the plan search: the
// memo cache every dispatch-LP solve goes through, the call's solver
// counters, and what is constant for the call — the Input, the LP layout,
// the solver options and the claimed warm state. The search it serves is
// one sequential walk on the caller's goroutine. It never outlives the
// Plan call that opened it, so cached entries are always for the call's
// own Input.
type engine struct {
	in        *Input
	perServer bool
	opts      lp.Options
	cache     subsetCache
	// names spells the aggregated layout's names from the planner's table.
	names *dispatchNames
	// warm, when non-nil, warm-starts every solve from the owning
	// planner's retained basis (see warm.go); nil solves cold.
	warm *warmState
	// capture is raised by prologue around the call's first solve: the
	// first LP solved while it is up runs on the warm state's hot chain.
	capture bool
	// priced makes a solve keep its shadow prices and final basis. It is up
	// while the planner runs a first-improvement search, which bounds each
	// move off its incumbent's prices and seeds the survivors from its
	// basis, and lowered for solves nothing searches from (branch-and-bound's
	// tree). An entry the memo cache serves may carry prices nobody asked
	// for, never the reverse: the searching phase comes first. The
	// per-server layout keeps none (see prices.bound).
	priced bool
	seeds  uint64 // identities handed to exported bases
	// n counts the call's solver work; close publishes it.
	n     SearchStats
	stats *SearchStats
	// sc streams the engine's solver counters to the observability
	// layer when the owning planner carries a scope; the Input's slot and
	// planner label the summary event. Nil-safe like everything in obs.
	sc      *obs.Scope
	planner string
}

// open starts the engine for one Plan call and claims the planner's warm
// state for it; close reports and releases. The per-server layout changes
// with the commodity set too quickly to seed, so it solves cold. searches
// says the planner will run a first-improvement search over the call's
// solved subsets.
func (e *EngineOptions) open(in *Input, planner string, perServer, searches bool) *engine {
	eng := &engine{
		in: in, perServer: perServer, opts: e.LPOpts, priced: searches && !perServer,
		cache: subsetCache{}, warm: e.claim(!perServer), stats: e.Stats, sc: e.Obs,
		planner: planner, names: e.namesFor(in.Sys),
	}
	if eng.warm == nil && e.WarmStart && !perServer {
		eng.stats = nil // a straggling call still owns the sink
	}
	return eng
}

// prologue runs the call's first solve, the designated capture solve: it
// re-solves on the retained hot chain and exports the basis that seeds the
// next slot. The window is closed explicitly in case the subset was empty
// and no LP ran.
func (e *engine) prologue(solve func() (assignment, error)) (assignment, error) {
	e.capture = true
	defer func() { e.capture = false }()
	return solve()
}

// solution is one solved dispatch LP as the searches see it. It is shared
// by every request the memo cache answers with it: read-only.
type solution struct {
	rates [][]float64
	obj   float64
	px    *prices // nil unless solved on a priced engine
}

// solve answers a dispatch-LP solve through the memo cache. comms must
// already be in canonical sortCommodities order (every search path
// canonicalizes before solving) so that equal sets produce equal keys.
// from, when it carries a basis, seeds the solve in place of the slot's
// frozen seed and joins the key, so an entry stays a pure function of
// (subset, seed): a solve made next to one incumbent is never served to a
// request made next to another.
func (e *engine) solve(comms []commodity, floors []float64, from *prices) (solution, error) {
	if len(comms) == 0 {
		if floorsActive(e.in, floors) {
			return solution{}, lp.ErrInfeasible
		}
		return solution{}, nil
	}
	var seed *lp.Basis // nil: the slot's frozen one, identity 0
	var seedID uint64
	if from != nil {
		seed, seedID = from.basis, from.seed
	}
	key := cacheKey(comms, floors, seedID)
	if ent, ok := e.cache[key]; ok {
		e.n.CacheHits++
		return ent.solution, ent.err
	}
	e.n.Solves++
	var ent cacheEntry
	d, res, basis, err := e.solveLP(comms, floors, seed)
	if err != nil {
		e.n.SolveErrors++
		ent.err = err
	} else {
		ent.rates, ent.obj = d.extractRates(res), res.Objective
		if e.priced {
			ent.px = d.priceOut(e.in, res)
			if basis != nil { // a warm solve's, so named
				e.seeds++
				ent.px.basis, ent.px.seed = basis, e.seeds
			}
		}
	}
	e.cache[key] = ent
	return ent.solution, ent.err
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

// solveLP builds one dispatch LP in the call's layout and solves it,
// uncached, from seed (nil: the slot's frozen one). The LP and its handles
// are the solve unit's, good until the engine's next solveLP, and come
// with a warm solve's final basis on a priced engine.
func (e *engine) solveLP(comms []commodity, floors []float64, seed *lp.Basis) (*dispatchLP, *lp.Result, *lp.Basis, error) {
	capture := e.capture
	e.capture = false
	u := e.warm.unit(capture)
	u.d.build(e.in, comms, floors, e.perServer, e.names)
	res, basis, err := e.run(u.d.model, capture, u.d.rebuilt, &u.sv, seed)
	return &u.d, res, basis, err
}

// run hands a built LP — a slot's, or a horizon window's — to the simplex
// through the call's warm state (cold when there is none) and books how
// the solve went. rebuilt says a capture solve's held model had to be
// built again.
func (e *engine) run(m *lp.Model, capture, rebuilt bool, sv *lp.Solver, seed *lp.Basis) (*lp.Result, *lp.Basis, error) {
	if capture && e.warm != nil && rebuilt {
		e.n.ModelRebuilds++
	}
	res, basis, out, err := e.warm.solveModel(m, e.opts, capture, sv, seed, e.priced)
	if out.FellBack {
		e.n.WarmFallbacks++
	} else if out.Path != "cold" {
		e.n.WarmHits++
	}
	if out.Sparse {
		e.n.SparseSolves++
	}
	e.n.WarmPivots += int64(out.WarmPivots)
	e.n.ColdPivots += int64(out.ColdPivots)
	e.n.AbandonedPivots += int64(out.AbandonedPivots)
	e.n.ImportPivots += int64(out.ImportPivots)
	e.n.Refactors += int64(out.Refactors)
	return res, basis, err
}

// close copies the engine's solver counters into the planner's stats
// sink and, when the planner carries an observability scope, publishes
// them as metrics plus one engine summary event per Plan call (every
// side is nil-safe), then releases the warm state.
func (e *engine) close() {
	defer e.warm.release()
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
		{n.CacheHits, "core_lp_cache_hits_total", "lpCacheHits"},
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
		{n.Refactors, "core_lp_refactors_total", "lpRefactors"},
	}
	published := counters[:]
	if e.warm == nil {
		published = counters[:4]
	}
	values := make(map[string]float64, len(published))
	for _, c := range published {
		e.sc.Counter(c.metric).Add(c.v)
		values[c.key] = float64(c.v)
	}
	e.sc.Emit(obs.Event{Kind: obs.KindEngine, Slot: e.in.Slot, Planner: e.planner, Values: values})
}
