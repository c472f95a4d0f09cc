package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"profitlb/internal/lp"
	"profitlb/internal/obs"
)

// engine is the per-Plan-call execution context of the plan search: a
// worker budget for evaluating independent subset/assignment LPs
// concurrently, the memo cache every dispatch-LP solve goes through, and
// what is constant for the call — the Input, the LP layout, the solver
// options and the claimed warm state. It never outlives the Plan call
// that opened it, so cached entries are always for the call's own Input.
type engine struct {
	in        *Input
	perServer bool
	opts      lp.Options
	workers   int
	cache     *subsetCache
	// names spells the aggregated layout's names from the planner's table.
	names *dispatchNames
	// warm, when non-nil, warm-starts every solve from the owning
	// planner's retained basis (see warm.go); nil solves cold.
	warm *warmState
	// capture is raised by prologue around the call's first, strictly
	// sequential solve: the first LP solved while it is up runs on the
	// warm state's hot chain.
	capture bool
	// priced makes a solve keep its shadow prices and final basis. It is up
	// while the planner runs a first-improvement search, which bounds each
	// move off its incumbent's prices and seeds the survivors from its
	// basis, and lowered — between passes, never under running workers — for
	// solves nothing searches from (branch-and-bound's tree). An entry the
	// memo cache serves may carry prices nobody asked for, never the
	// reverse: the searching phase comes first. The per-server layout keeps
	// none (see prices.bound).
	priced bool
	seeds  atomic.Uint64 // identities handed to exported bases
	bounds atomic.Int64  // moves rejected by the bound, unsolved
	// Per-call solver counters, published by close.
	warmHits        atomic.Int64 // solves answered hot or by basis import
	warmFallbacks   atomic.Int64 // warm attempts that fell back to cold
	warmPivots      atomic.Int64 // simplex pivots spent on warm-path solves
	coldPivots      atomic.Int64 // pivots spent on cold solves (incl. fallbacks)
	sparseSolves    atomic.Int64 // warm solves answered by the sparse revised simplex
	abandonedPivots atomic.Int64 // pivots burned on abandoned warm attempts
	importPivots    atomic.Int64 // basis-crash pivots, outside the three above
	modelRebuilds   atomic.Int64 // capture solves whose held LP changed shape
	refactors       atomic.Int64 // in-place refactorizations of a sparse basis
	stats           *SearchStats
	// sc streams the engine's solver counters to the observability
	// layer when the owning planner carries a scope; the Input's slot and
	// planner label the summary event. Nil-safe like everything in obs.
	sc      *obs.Scope
	planner string
}

// open starts the engine for one Plan call and claims the planner's warm
// state for it; close reports and releases. Parallelism 0 and 1 both mean
// one worker — the serial search order, answered from the cache when
// possible — and negative values use all CPUs. The per-server layout
// changes with the commodity set too quickly to seed, so it solves cold.
// searches says the planner will run a first-improvement search over the
// call's solved subsets.
func (e *EngineOptions) open(in *Input, planner string, perServer, searches bool) *engine {
	eng := &engine{
		in: in, perServer: perServer, opts: e.lpOpts(), priced: searches && !perServer,
		workers: resolveWorkers(e.Parallelism), cache: newSubsetCache(),
		warm: e.claim(!perServer), stats: e.Stats, sc: e.Obs, planner: planner,
		names: e.namesFor(in.Sys),
	}
	if eng.warm == nil && e.WarmStart && !perServer {
		eng.stats = nil // a straggling call still owns the sink
	}
	return eng
}

// resolveWorkers maps the Parallelism knob to a concrete worker count,
// capped at the CPU count: the search is CPU-bound, so workers beyond
// the machine's parallelism only add speculative evaluations that real
// concurrency cannot hide, plus goroutine churn. The cap never changes
// the committed plan — the speculative accept order is batch-size
// invariant by construction (see speculativePass).
func resolveWorkers(p int) int {
	n := runtime.NumCPU()
	if p < 0 {
		return n
	}
	if p < 1 {
		return 1
	}
	if p > n {
		return n
	}
	return p
}

// prologue runs the call's first solve, which is strictly sequential and
// therefore the designated capture solve: it re-solves on the retained
// hot chain and exports the basis that seeds the next slot. The window is
// closed explicitly in case the subset was empty and no LP ran.
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
// (subset, seed): a speculative solve made next to one incumbent is never
// served to a request made next to another. Concurrent workers asking for
// the same entry block on one solve and share its result.
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
	c := e.cache
	ent := c.entry(cacheKey(comms, floors, seedID))
	hit := true
	ent.once.Do(func() {
		hit = false
		c.solves.Add(1)
		u, res, basis, err := e.solveLP(comms, floors, seed)
		defer e.warm.recycle(u)
		if err != nil {
			c.errs.Add(1)
			ent.err = err
			return
		}
		ent.rates, ent.obj = u.d.extractRates(res), res.Objective
		if e.priced {
			ent.px = u.d.priceOut(e.in, res)
			if basis != nil { // a warm solve's, so named
				ent.px.basis, ent.px.seed = basis, e.seeds.Add(1)
			}
		}
	})
	if hit {
		c.hits.Add(1)
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
	e.bounds.Add(1)
	return true
}

// solveLP builds one dispatch LP in the call's layout and solves it,
// uncached, through the call's warm state (cold when there is none), from
// seed (nil: the slot's frozen one). The LP and its handles live in the
// returned unit, which the caller hands to warm.recycle once it has read
// the solution out, with a warm solve's final basis on a priced engine.
func (e *engine) solveLP(comms []commodity, floors []float64, seed *lp.Basis) (*solveUnit, *lp.Result, *lp.Basis, error) {
	capture := e.capture
	if capture {
		e.capture = false
	}
	u := e.warm.unit(capture)
	u.d.build(e.in, comms, floors, e.perServer, e.names)
	if capture && e.warm != nil && u.d.rebuilt {
		e.modelRebuilds.Add(1)
	}
	res, basis, out, err := e.warm.solveModel(u.d.model, e.opts, capture, &u.sv, seed, e.priced)
	if out.FellBack {
		e.warmFallbacks.Add(1)
	} else if out.Path != "cold" {
		e.warmHits.Add(1)
	}
	if out.Sparse {
		e.sparseSolves.Add(1)
	}
	e.warmPivots.Add(int64(out.WarmPivots))
	e.coldPivots.Add(int64(out.ColdPivots))
	e.abandonedPivots.Add(int64(out.AbandonedPivots))
	e.importPivots.Add(int64(out.ImportPivots))
	e.refactors.Add(int64(out.Refactors))
	return u, res, basis, err
}

// close copies the engine's solver counters into the planner's stats
// sink and, when the planner carries an observability scope, publishes
// them as metrics plus one engine summary event per Plan call (every
// side is nil-safe), then releases the warm state.
func (e *engine) close() {
	defer e.warm.release()
	solves, hits, errs := e.cache.solves.Load(), e.cache.hits.Load(), e.cache.errs.Load()
	warmHits, warmFalls := e.warmHits.Load(), e.warmFallbacks.Load()
	warmPiv, coldPiv := e.warmPivots.Load(), e.coldPivots.Load()
	sparseSolves, abandonedPiv := e.sparseSolves.Load(), e.abandonedPivots.Load()
	importPiv, bounds, rebuilds := e.importPivots.Load(), e.bounds.Load(), e.modelRebuilds.Load()
	refactors := e.refactors.Load()
	if stats := e.stats; stats != nil {
		stats.Solves, stats.CacheHits, stats.SolveErrors = solves, hits, errs
		stats.Bounded = bounds
		stats.WarmHits, stats.WarmFallbacks = warmHits, warmFalls
		stats.WarmPivots, stats.ColdPivots = warmPiv, coldPiv
		stats.SparseSolves, stats.AbandonedPivots = sparseSolves, abandonedPiv
		stats.ImportPivots, stats.ModelRebuilds, stats.Refactors = importPiv, rebuilds, refactors
	}
	if e.sc.Enabled() {
		e.sc.Counter("core_lp_solves_total").Add(solves)
		e.sc.Counter("core_lp_cache_hits_total").Add(hits)
		e.sc.Counter("core_lp_solve_errors_total").Add(errs)
		e.sc.Counter("core_lp_bounded_total").Add(bounds)
		values := map[string]float64{
			"lpSolves":      float64(solves),
			"lpCacheHits":   float64(hits),
			"lpSolveErrors": float64(errs),
			"lpBounded":     float64(bounds),
		}
		if e.warm != nil {
			e.sc.Counter("core_lp_warm_hits_total").Add(warmHits)
			e.sc.Counter("core_lp_warm_fallbacks_total").Add(warmFalls)
			e.sc.Counter("core_lp_warm_pivots_total").Add(warmPiv)
			e.sc.Counter("core_lp_cold_pivots_total").Add(coldPiv)
			e.sc.Counter("core_lp_sparse_solves_total").Add(sparseSolves)
			e.sc.Counter("core_lp_abandoned_pivots_total").Add(abandonedPiv)
			e.sc.Counter("core_lp_import_pivots_total").Add(importPiv)
			e.sc.Counter("core_lp_model_rebuilds_total").Add(rebuilds)
			e.sc.Counter("core_lp_refactors_total").Add(refactors)
			values["lpWarmHits"] = float64(warmHits)
			values["lpWarmFallbacks"] = float64(warmFalls)
			values["lpWarmPivots"] = float64(warmPiv)
			values["lpColdPivots"] = float64(coldPiv)
			values["lpSparseSolves"] = float64(sparseSolves)
			values["lpAbandonedPivots"] = float64(abandonedPiv)
			values["lpImportPivots"] = float64(importPiv)
			values["lpModelRebuilds"] = float64(rebuilds)
			values["lpRefactors"] = float64(refactors)
		}
		e.sc.Emit(obs.Event{Kind: obs.KindEngine, Slot: e.in.Slot, Planner: e.planner,
			Values: values})
	}
}

// mapOrdered evaluates fn(0..n-1) on up to workers goroutines and
// returns the results in index order. When several calls fail, the
// error of the lowest failing index is returned, so the surfaced error
// does not depend on goroutine scheduling. workers ≤ 1 runs inline with
// no goroutines.
//
// A panic inside fn on a worker goroutine is recovered into that
// index's error: on the inline path a panic unwinds to the caller,
// where the resilient chain's per-tier recovery catches it, but a
// goroutine panic would crash the whole process — no recover() further
// up the stack can reach another goroutine. Converting it to an error
// keeps the parallel search inside the same failure contract as the
// serial one (the chain sees a planner error and falls through to the
// next tier).
func mapOrdered[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	return mapOrderedInto(make([]T, n), workers, fn)
}

// mapOrderedInto is mapOrdered over len(out) indexes with the results
// written into out, which a caller of many small maps reuses.
func mapOrderedInto[T any](out []T, workers int, fn func(int) (T, error)) ([]T, error) {
	n := len(out)
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[i] = fmt.Errorf("core: panic in parallel search at index %d: %v", i, r)
						}
					}()
					out[i], errs[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// speculativePass runs one first-improvement pass over n ordered
// candidates. eval(i) evaluates candidate i against the current search
// state without mutating it; tryAccept(i, a) applies the move when it
// improves the state and reports whether it did.
//
// Candidates are evaluated speculatively in batches against a frozen
// state: the batch is scanned in candidate order, the first improving
// candidate is accepted, and every later result in the batch is
// discarded (it was computed against the now-stale state) and
// re-evaluated in the next batch. The accept sequence is therefore
// identical for every batch size, which is what makes the search
// bit-identical at any worker count. Batch size only shifts work
// between wasted speculation and parallelism; it grows while no move is
// accepted (converged passes become one big parallel map) and resets on
// every accept.
//
// One worker overlaps nothing, so its batch stays at one: whatever it
// evaluated past an accept would be thrown away.
func speculativePass(workers, n int, eval func(int) (assignment, error), tryAccept func(int, assignment) bool) (bool, error) {
	improved := false
	batch := workers
	maxBatch := 4 * workers
	if workers == 1 {
		maxBatch = 1
	}
	// One results buffer and one closure for the pass, not one per batch:
	// a bounded pass is hundreds of batches that solve nothing.
	results := make([]assignment, maxBatch)
	i := 0
	evalAt := func(j int) (assignment, error) { return eval(i + j) }
	for i < n {
		b := min(batch, n-i)
		batchResults, err := mapOrderedInto(results[:b], workers, evalAt)
		if err != nil {
			return false, err
		}
		accepted := false
		for j, a := range batchResults {
			if tryAccept(i+j, a) {
				improved, accepted = true, true
				i += j + 1
				break
			}
		}
		if !accepted {
			i += b
			batch = min(2*batch, maxBatch)
		} else {
			batch = workers
		}
	}
	return improved, nil
}

// atomicFloat is a lock-free monotonic maximum, used as the shared
// branch-and-bound incumbent. It only ever rises, so concurrent raises
// can interleave freely: pruning against a stale (lower) value is
// always safe.
type atomicFloat struct{ bits atomic.Uint64 }

func newAtomicFloat(v float64) *atomicFloat {
	f := &atomicFloat{}
	f.bits.Store(math.Float64bits(v))
	return f
}

func (f *atomicFloat) load() float64 {
	return math.Float64frombits(f.bits.Load())
}

// raise lifts the stored value to at least v.
func (f *atomicFloat) raise(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
