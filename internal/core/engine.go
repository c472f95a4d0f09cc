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
	// cache is nil on a call whose requests cannot repeat (a refine-off
	// Optimized: its capture alone), which then builds no memo key.
	cache subsetCache
	// names spells the aggregated layout's names from the planner's table.
	names *dispatchNames
	// warm, when non-nil, warm-starts every solve from the owning
	// planner's retained basis (see warm.go); nil solves cold.
	warm *warmState
	// held is raised by prologue around the call's first solve (capture)
	// and around Refine's greedy start (greedyStart): the first request
	// while it is up takes that held chain — its LP solved on the chain's
	// unit, or the memo cache's answer, which consumes the chain all the
	// same, so a move's LP never lands on it.
	held chain
	// priced makes a solve keep its shadow prices and final basis. It is up
	// while the planner runs a first-improvement search, which bounds each
	// move off its incumbent's prices and seeds the survivors from its
	// basis, and lowered for solves nothing searches from (branch-and-bound's
	// tree). An entry the memo cache serves may carry prices nobody asked
	// for, never the reverse: the searching phase comes first. The
	// per-server layout keeps none (see prices.bound).
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
		cache: subsetCache{}, warm: e.claim(!perServer), stats: e.Stats, sc: e.Obs,
		planner: planner, names: e.namesFor(in.Sys), scratch: &e.scratch,
	}
}

// planScratch is what a planner's Plan calls refill, each with [:0], in
// place of the lists a call used to allocate: the call's admission (the
// route pass and the admissible and capped lists, see admission),
// evaluate's per-vector subset and its capped copy, the memo key, the
// rates of a solve no cache entry owns and planFromRates' read-out.
// Nothing in it is read before the call that fills it has written it, so
// a planner plans alike with it dropped before every call
// (TestHeldListsAreInvisible).
type planScratch struct {
	admission
	pick, kept []commodity
	key        []byte
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

// solution is one solved dispatch LP as the searches see it. It is shared
// by every request the memo cache answers with it: read-only. A cut one
// is a trial its cutoff stopped: obj is the dual bound it stopped at,
// above the optimum and below the cutoff, and there are no rates or
// prices — it reads as a move that does not improve.
type solution struct {
	rates [][]float64
	obj   float64
	px    *prices // nil unless solved on a priced engine
	cut   bool
}

// solve answers a dispatch-LP solve through the memo cache. comms must
// already be in canonical sortCommodities order (every search path
// canonicalizes before solving) so that equal sets produce equal keys, and
// must not change while the call lasts: a priced solution keeps it as its
// set. from, the prices of the incumbent the set neighbours, makes the request
// a move's survivor: it is solved as a trial from that incumbent's kernel
// (see heldUnit), and the incumbent's identity joins the key, so an entry
// stays a function of (subset, incumbent) within the call: a solve made
// next to one incumbent is never served to a request made next to another.
// A held chain's solve is keyed like a request with no incumbent: it is an
// optimum of the same LP, and the first request for its key in the call.
//
// cutoff (noCutoff: none) is what the request needs the optimum to beat: a
// trial may stop once it cannot (a cut solution). The cache serves a cut
// entry only to a request whose cutoff is above the bound it stopped at —
// any whose cutoff is at least the one it was cut under; another solves
// the set again, and its answer replaces the entry.
func (e *engine) solve(comms []commodity, floors []float64, from *prices, cutoff float64) (solution, error) {
	if len(comms) == 0 {
		if floorsActive(e.in, floors) {
			return solution{}, lp.ErrInfeasible
		}
		return solution{}, nil
	}
	c := e.held
	e.held = spare
	var seedID uint64 // 0: no incumbent
	if from != nil {
		seedID = from.seed
	}
	// A nil cache is a call whose requests cannot repeat: no key is built,
	// and the rates, which no entry will own, go to the held rows.
	rows := &e.scratch.rates
	if e.cache != nil {
		e.scratch.key = appendCacheKey(e.scratch.key[:0], comms, floors, seedID)
		if ent, ok := e.cache[string(e.scratch.key)]; ok && (!ent.cut || ent.obj < cutoff) {
			e.n.CacheHits++
			return ent.solution, ent.err
		}
		rows = nil
	}
	e.n.Solves++
	var ent cacheEntry
	d, at, res, err := e.solveLP(c, comms, floors, from, cutoff)
	switch {
	case err != nil:
		e.n.SolveErrors++
		ent.err = err
	case res.Status == lp.Cutoff:
		ent.obj, ent.cut = res.Objective, true
	default:
		ent.rates, ent.obj = d.extractRates(res, rows, at), res.Objective
		if e.priced {
			ent.px = d.priceOut(e.in, res, comms, at)
			if e.warm != nil { // a search may go on from it: number it
				e.seeds++
				ent.px.seed, ent.px.comms = e.seeds, comms
				if at != nil {
					e.warm.hot.last = e.seeds
				}
			}
		}
	}
	if e.cache != nil {
		e.cache[string(e.scratch.key)] = ent
	}
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

// solveLP solves one dispatch LP in the call's layout, uncached: a move's
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
		{n.Trials, "core_lp_trials_total", "lpTrials"},
		{n.Cuts, "core_lp_cuts_total", "lpCuts"},
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
	e.sc.Emit(obs.Event{Kind: obs.KindEngine, Slot: e.in.Slot, Epoch: e.in.Epoch, Planner: e.planner, Values: values})
}
