package core

import (
	"fmt"
	"math"
	"sort"

	"profitlb/internal/lp"
	"profitlb/internal/obs"
)

// commodity is one (class k, TUF level q, data center l) triple admitted to
// the dispatch LP, carrying its level's utility and deadline and the best
// per-request profit coefficient over front-ends (used for pruning).
type commodity struct {
	k, q, l  int
	utility  float64
	deadline float64
	bestCoef float64
	// floored marks a commodity of a class carrying a completion floor:
	// admitted even at a loss, and exempt from reservation eviction
	// while any non-floored commodity remains (see capReservations).
	floored bool
}

// Optimized is the paper's "Optimized" planner: it maximizes paper Eq. 5
// subject to Constraints 6–8 by solving a linear program in which every
// TUF level is a separate commodity with its own share variable and
// linearized deadline constraint (Section IV-1's transformation applied
// per level). Serving one type partly at a tight sub-deadline and partly
// at a loose one — which the paper's per-server MINLP achieves by giving
// servers different shares — corresponds here to splitting the type's
// traffic across level commodities.
type Optimized struct {
	// PerServer switches to the paper's faithful per-server variable
	// layout (λ_{k,s,i,l}, φ_{k,i,l}). It is equivalent in value for
	// homogeneous servers but much larger; it exists to reproduce the
	// computation-time growth of paper Fig. 11.
	PerServer bool
	// Refine runs a local search over commodity subsets: the paper's
	// linearized deadline constraint reserves share for every admitted
	// commodity even at zero load, so excluding a commodity can free more
	// capacity than its traffic was worth. The search toggles commodities
	// in and out, keeping strict improvements, from two seeds — the full
	// admissible set and the greedy single-level commitment.
	Refine bool
	// Consolidate computes the minimum number of powered-on servers per
	// center after dispatch (on by default via NewOptimized).
	Consolidate bool
	// TopUp distributes leftover CPU share across used commodities after
	// consolidation, lowering delays below their targets (and potentially
	// crossing into a better TUF level at accounting time).
	TopUp bool
	// MinCompletion optionally forces serving at least the given fraction
	// of each type's offered arrivals (one entry per class, values in
	// [0,1]). The paper's profit maximization treats types with "no
	// priority difference", which can starve a low-value type entirely;
	// floors buy fairness at a measurable profit cost. Plan returns an
	// error when the floors exceed what the fleet can serve.
	MinCompletion []float64
	// EngineOptions carries the solver and search-engine knobs shared
	// with LevelSearch and HorizonPlanner. WarmStart and Sparse are
	// ignored under PerServer, whose variable layout changes with the
	// commodity set too quickly to seed.
	EngineOptions
	// warm is the retained cross-slot solver state behind WarmStart.
	warm *warmState
}

// EngineOptions are the solver and plan-search knobs every LP-backed
// planner carries (embedded in Optimized, LevelSearch and
// HorizonPlanner; the constructors switch WarmStart and Sparse on).
type EngineOptions struct {
	// LPOpts tunes the simplex solver.
	LPOpts lp.Options
	// Parallelism controls the plan-search engine. 0 (the default)
	// keeps the legacy strictly serial, uncached search; n ≥ 1 enables
	// the engine with n workers and the subset-LP memo cache (n = 1 is
	// the serial engine: identical search order, answered from cache);
	// negative values use runtime.NumCPU(). Parallel and serial runs
	// commit bit-identical plans — see DESIGN.md §7. The engine's
	// goroutines live entirely inside one Plan call; the planner itself
	// must still be driven by a single caller at a time. A
	// HorizonPlanner solves one LP per window and has no search to
	// parallelize.
	Parallelism int
	// WarmStart re-solves successive LPs (the next slot's dispatch LP,
	// the next horizon window) from the optimal basis of the previous
	// one instead of from scratch (see DESIGN.md §12). Warm results are
	// audited against the model before use and identical at every
	// Parallelism setting, but may differ from cold results at
	// floating-point round-off level; set WarmStart to false for solves
	// bit-identical to the classic cold path. WarmStart routes a slot
	// planner's solves through the engine and memo cache even at
	// Parallelism == 0, so Stats and Obs become live there too.
	WarmStart bool
	// Sparse routes warm-started LPs at or above the sparse row
	// threshold through the sparse revised simplex (LU-factorized basis,
	// FTRAN/BTRAN solves) instead of the dense warm tableau (see
	// DESIGN.md §14). Results are audited exactly like the dense warm
	// path's; set Sparse to false — or leave WarmStart off — for the
	// dense path bit for bit. The threshold itself can be tuned via
	// LPOpts.SparseMinRows.
	Sparse bool
	// Stats, when non-nil, receives the engine's solver counters after
	// each Plan call (zero when the engine is off, i.e. Parallelism == 0
	// and WarmStart == false). Diagnostics only.
	Stats *SearchStats
	// Obs, when non-nil, streams the engine's LP-solve and cache
	// counters (metrics plus one engine event per Plan call) to the
	// observability layer. It only watches — plans are bit-identical
	// with or without a scope. Zero when the engine is off: the legacy
	// serial path has no engine to count.
	Obs *obs.Scope
}

// lpOpts resolves the effective solver options: the Sparse knob merges
// into LPOpts so every solve site and the memo-cache key see one value.
func (e *EngineOptions) lpOpts() lp.Options {
	opts := e.LPOpts
	if e.Sparse {
		opts.Sparse = true
	}
	return opts
}

// NewOptimized returns the planner with the paper-faithful defaults:
// aggregated variables, refinement, consolidation and warm-started
// re-solves on, top-up off.
func NewOptimized() *Optimized {
	return &Optimized{Refine: true, Consolidate: true, EngineOptions: EngineOptions{WarmStart: true, Sparse: true}}
}

// Name implements Planner.
func (o *Optimized) Name() string {
	if o.PerServer {
		return "optimized/per-server"
	}
	return "optimized"
}

// Plan implements Planner.
func (o *Optimized) Plan(in *Input) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var w *warmState
	if o.WarmStart && !o.PerServer {
		if o.warm == nil {
			o.warm = newWarmState()
		}
		w = o.warm
	}
	eng := newEngine(o.Parallelism, in, o.Name(), o.Obs, w)
	defer eng.report(o.Stats)
	full := admissibleCommodities(in, o.MinCompletion)
	// The first solve of the Plan call runs strictly sequentially, so it
	// is the designated capture solve: it re-solves on the retained hot
	// tableau and exports the basis that seeds the next slot. The window
	// is closed explicitly in case the subset was empty and no LP ran.
	if w != nil {
		w.capture = true
	}
	best, err := o.solveSubset(eng, in, capReservations(in, full))
	if w != nil {
		w.capture = false
	}
	if err != nil {
		return nil, err
	}
	if o.Refine {
		improved, err := o.toggleSearch(eng, in, full, best)
		if err != nil {
			return nil, err
		}
		best = improved
		// Second seed: the greedy single-level commitment, which excludes
		// all but one level per (type, center) and sometimes escapes the
		// full set's reservation load.
		if multiLevel(in) {
			seed, err := o.greedySeed(eng, in)
			if err != nil {
				return nil, err
			}
			// Re-evaluate the seed subset under this planner's own
			// constraints (the greedy search knows nothing of floors).
			seedEval, err := o.solveSubset(eng, in, seed.comms)
			if err != nil {
				return nil, err
			}
			fromSeed, err := o.toggleSearch(eng, in, full, seedEval)
			if err != nil {
				return nil, err
			}
			if fromSeed.obj > best.obj {
				best = fromSeed
			}
		}
	}
	if math.IsInf(best.obj, -1) {
		return nil, fmt.Errorf("core: completion floors %v exceed what the fleet can serve", o.MinCompletion)
	}

	plan, err := planFromRates(in, best.comms, best.rates, o.Consolidate, o.TopUp)
	if err != nil {
		return nil, err
	}
	plan.Objective = planObjective(in, plan)
	return plan, nil
}

// admissibleCommodities lists every (k, q, l) whose best route earns a
// positive per-request profit; the LP would never use the others, and
// omitting them avoids the paper's zero-load share reservation for them.
// Types carrying a completion floor are admitted regardless of
// profitability — the floor may force serving them at a loss.
func admissibleCommodities(in *Input, floors []float64) []commodity {
	sys := in.Sys
	var out []commodity
	for k := 0; k < sys.K(); k++ {
		floored := k < len(floors) && floors[k] > 0
		levels := sys.Classes[k].TUF.Levels()
		for q, lev := range levels {
			for l := 0; l < sys.L(); l++ {
				best := math.Inf(-1)
				for s := 0; s < sys.S(); s++ {
					if c := sys.UnitProfit(k, s, l, lev.Utility, in.Prices[l]); c > best {
						best = c
					}
				}
				if best > 0 || floored {
					out = append(out, commodity{k: k, q: q, l: l, utility: lev.Utility, deadline: lev.Deadline, bestCoef: best, floored: floored})
				}
			}
		}
	}
	return out
}

// capReservations enforces per-center feasibility of the paper's
// linearized deadline constraint at zero load: the shares reserved by the
// admitted commodities, Σ 1/(D·C·μ), must fit in one server. Commodities
// with the lowest value are evicted first, except that floor-carrying
// commodities — admitted by admissibleCommodities precisely so a
// completion floor can be met, at a loss if necessary — are
// eviction-exempt until no non-floored commodity remains at the center.
// Their bestCoef is usually the lowest in the set (often negative), so
// value-ordered eviction would strip a floored type of every commodity
// and turn a feasible instance into a spurious "floors exceed what the
// fleet can serve" failure. The input slice is not modified.
func capReservations(in *Input, orig []commodity) []commodity {
	comms := append([]commodity(nil), orig...)
	sys := in.Sys
	const margin = 0.999
	for l := 0; l < sys.L(); l++ {
		for {
			var sum float64
			for _, c := range comms {
				if c.l != l {
					continue
				}
				dc := &sys.Centers[l]
				sum += 1 / (c.deadline * dc.Capacity * dc.ServiceRate[c.k])
			}
			if sum <= margin {
				break
			}
			worst := worstEvictable(comms, l)
			if worst < 0 {
				break
			}
			comms = append(comms[:worst], comms[worst+1:]...)
		}
	}
	return comms
}

// worstEvictable picks the eviction victim among the commodities of
// center l (any center when l < 0): the lowest bestCoef among
// non-floored commodities, falling back to floored ones only when no
// other candidate exists.
func worstEvictable(comms []commodity, l int) int {
	worst, worstVal := -1, math.Inf(1)
	worstFl, worstFlVal := -1, math.Inf(1)
	for ci, c := range comms {
		if l >= 0 && c.l != l {
			continue
		}
		if c.floored {
			if c.bestCoef < worstFlVal {
				worstFl, worstFlVal = ci, c.bestCoef
			}
		} else if c.bestCoef < worstVal {
			worst, worstVal = ci, c.bestCoef
		}
	}
	if worst < 0 {
		return worstFl
	}
	return worst
}

func dropWorst(comms []commodity) []commodity {
	worst := worstEvictable(comms, -1)
	if worst < 0 {
		return comms[:0]
	}
	return append(comms[:worst], comms[worst+1:]...)
}

// solveSubset solves the dispatch LP over a copy of comms. Without
// completion floors, numerically rare infeasibility retries with the
// least valuable commodity dropped; with floors, an infeasible subset is
// reported as a -Inf assignment so the subset search can route around it.
func (o *Optimized) solveSubset(eng *engine, in *Input, comms []commodity) (assignment, error) {
	comms = append([]commodity(nil), comms...)
	// Canonical order: keys the memo cache and keeps the LP layout
	// independent of how the candidate subset was constructed.
	sortCommodities(comms)
	withFloors := floorsActive(in, o.MinCompletion)
	for {
		rates, obj, err := eng.solve(in, comms, o.PerServer, o.MinCompletion, o.lpOpts())
		if err == nil {
			return assignment{comms: comms, rates: rates, obj: obj}, nil
		}
		if err == lp.ErrInfeasible && withFloors {
			return assignment{comms: comms, obj: math.Inf(-1)}, nil
		}
		if err != lp.ErrInfeasible || len(comms) == 0 {
			return assignment{}, fmt.Errorf("core: dispatch LP failed: %w", err)
		}
		comms = dropWorst(comms)
	}
}

// commodityKey identifies a commodity across subsets.
type commodityKey struct{ k, q, l int }

func keyOf(c commodity) commodityKey { return commodityKey{c.k, c.q, c.l} }

// toggleSearch hill-climbs over commodity subsets by single add/remove
// moves, starting from start and drawing candidates from full. Candidate
// moves are evaluated through speculativePass, so the engine solves
// several trial subsets concurrently while committing exactly the same
// first-improvement sequence as the serial search.
func (o *Optimized) toggleSearch(eng *engine, in *Input, full []commodity, start assignment) (assignment, error) {
	best := start
	inSet := make(map[commodityKey]bool, len(best.comms))
	for _, c := range best.comms {
		inSet[keyOf(c)] = true
	}
	// trialFor builds the subset for toggling cand against the current
	// best set; ok is false when adding cand would overload a center's
	// reservations (the move is skipped). Read-only on the search state,
	// so concurrent speculative evaluations are race-free.
	trialFor := func(cand commodity) (trial []commodity, ok bool) {
		key := keyOf(cand)
		if inSet[key] {
			for _, c := range best.comms {
				if keyOf(c) != key {
					trial = append(trial, c)
				}
			}
			return trial, true
		}
		trial = append(append([]commodity(nil), best.comms...), cand)
		capped := capReservations(in, trial)
		if len(capped) != len(trial) {
			return nil, false
		}
		return capped, true
	}
	for iter := 0; iter < 60; iter++ {
		improved, err := speculativePass(eng.workerCount(), len(full),
			func(i int) (assignment, error) {
				trial, ok := trialFor(full[i])
				if !ok {
					return assignment{obj: math.Inf(-1)}, nil // skipped move
				}
				return o.solveSubset(eng, in, trial)
			},
			func(i int, a assignment) bool {
				if a.obj <= best.obj+1e-9 {
					return false
				}
				best = a
				key := keyOf(full[i])
				inSet[key] = !inSet[key]
				return true
			})
		if err != nil {
			return assignment{}, err
		}
		if !improved {
			break
		}
	}
	return best, nil
}

// greedySeed runs the greedy single-level commitment of LevelSearch to
// seed the subset search. It shares the caller's engine, so its LP
// solves land in (and draw from) the same memo cache.
func (o *Optimized) greedySeed(eng *engine, in *Input) (assignment, error) {
	ls := &LevelSearch{Strategy: Greedy, PerServer: o.PerServer, EngineOptions: EngineOptions{LPOpts: o.LPOpts, Sparse: o.Sparse}}
	var pairs []pair
	for k := 0; k < in.Sys.K(); k++ {
		for l := 0; l < in.Sys.L(); l++ {
			pairs = append(pairs, pair{k, l})
		}
	}
	return ls.greedy(eng, in, pairs)
}

// multiLevel reports whether any class has more than one TUF level.
func multiLevel(in *Input) bool {
	for _, c := range in.Sys.Classes {
		if c.TUF.NumLevels() > 1 {
			return true
		}
	}
	return false
}

// dispatchLP is the aggregated slot LP together with the handles needed
// to read the solution and its shadow prices back out.
type dispatchLP struct {
	model *lp.Model
	comms []commodity
	xVar  [][]int // [ci][s]
	fVar  []int   // [ci]
	// arrRow[k][s] and shareRow[l] index constraint rows (-1 if absent).
	arrRow   [][]int
	shareRow []int
}

// buildDispatchLP assembles the aggregated LP over the given commodities:
// objective = paper Eq. 5, constraints = linearized Constraint 6
// aggregated over the M_l homogeneous servers (M·C·μ·φ − Σ_s λ ≥ M/D),
// per-front-end arrival budgets (Constraint 7) and per-center share caps
// (Constraint 8).
func buildDispatchLP(in *Input, comms []commodity, floors []float64) *dispatchLP {
	sys := in.Sys
	T := sys.Slot()
	d := &dispatchLP{model: lp.NewModel(), comms: comms}
	m := d.model

	d.xVar = make([][]int, len(comms))
	d.fVar = make([]int, len(comms))
	for ci, c := range comms {
		d.fVar[ci] = m.AddVariable(fmt.Sprintf("phi_k%d_q%d_l%d", c.k, c.q, c.l), 0)
		d.xVar[ci] = make([]int, sys.S())
		for s := 0; s < sys.S(); s++ {
			coef := T * sys.UnitProfit(c.k, s, c.l, c.utility, in.Prices[c.l])
			d.xVar[ci][s] = m.AddVariable(fmt.Sprintf("lam_k%d_q%d_s%d_l%d", c.k, c.q, s, c.l), coef)
		}
	}
	for ci, c := range comms {
		dc := &sys.Centers[c.l]
		n := float64(dc.Servers)
		terms := []lp.Term{{Var: d.fVar[ci], Coef: n * dc.Capacity * dc.ServiceRate[c.k]}}
		for s := 0; s < sys.S(); s++ {
			terms = append(terms, lp.Term{Var: d.xVar[ci][s], Coef: -1})
		}
		m.AddConstraint(fmt.Sprintf("cap_k%d_q%d_l%d", c.k, c.q, c.l), terms, lp.GE, n/c.deadline)
	}
	d.arrRow = make([][]int, sys.K())
	for k := 0; k < sys.K(); k++ {
		d.arrRow[k] = make([]int, sys.S())
		for s := 0; s < sys.S(); s++ {
			d.arrRow[k][s] = -1
			var terms []lp.Term
			for ci, c := range comms {
				if c.k == k {
					terms = append(terms, lp.Term{Var: d.xVar[ci][s], Coef: 1})
				}
			}
			if len(terms) > 0 {
				d.arrRow[k][s] = m.AddConstraint(fmt.Sprintf("arr_k%d_s%d", k, s), terms, lp.LE, in.Arrivals[s][k])
			}
		}
	}
	// Completion floors (extension): Σ_{q,s,l} λ ≥ frac·Σ_s arrivals.
	for k := 0; k < sys.K() && k < len(floors); k++ {
		frac := floors[k]
		if frac <= 0 {
			continue
		}
		var terms []lp.Term
		for ci, c := range comms {
			if c.k != k {
				continue
			}
			for s := 0; s < sys.S(); s++ {
				terms = append(terms, lp.Term{Var: d.xVar[ci][s], Coef: 1})
			}
		}
		var offered float64
		for s := 0; s < sys.S(); s++ {
			offered += in.Arrivals[s][k]
		}
		if len(terms) == 0 && frac*offered > 0 {
			// No admissible commodity can serve the type at all: encode
			// an explicitly infeasible row so the caller sees it.
			terms = []lp.Term{{Var: d.fVar[0], Coef: 0}}
		}
		m.AddConstraint(fmt.Sprintf("floor_k%d", k), terms, lp.GE, frac*offered)
	}
	d.shareRow = make([]int, sys.L())
	for l := 0; l < sys.L(); l++ {
		d.shareRow[l] = -1
		var terms []lp.Term
		for ci, c := range comms {
			if c.l == l {
				terms = append(terms, lp.Term{Var: d.fVar[ci], Coef: 1})
			}
		}
		if len(terms) > 0 {
			d.shareRow[l] = m.AddConstraint(fmt.Sprintf("share_l%d", l), terms, lp.LE, 1)
		}
	}
	return d
}

// solve optimizes the LP and extracts the per-commodity rates.
func (d *dispatchLP) solve(opts lp.Options) ([][]float64, *lp.Result, error) {
	res, err := d.model.SolveOpts(opts)
	if err != nil {
		return nil, nil, err
	}
	return d.extractRates(res), res, nil
}

// extractRates reads the per-commodity dispatch rates out of a solution.
func (d *dispatchLP) extractRates(res *lp.Result) [][]float64 {
	S := 0
	if len(d.xVar) > 0 {
		S = len(d.xVar[0])
	}
	rates := make([][]float64, len(d.comms))
	for ci := range d.comms {
		rates[ci] = make([]float64, S)
		for s := 0; s < S; s++ {
			if v := res.Value(d.xVar[ci][s]); v > 0 {
				rates[ci][s] = v
			}
		}
	}
	return rates
}

// solveDispatchLP builds and solves the slot LP over the given commodities
// and returns rates[ci][s] (the per-commodity dispatch from each front-end)
// and the objective (dollars for the slot).
func solveDispatchLP(in *Input, comms []commodity, perServer bool, floors []float64, opts lp.Options) ([][]float64, float64, error) {
	return solveDispatchLPW(in, comms, perServer, floors, opts, nil)
}

// solveDispatchLPW is solveDispatchLP with an optional warm state: when
// w is non-nil (and the layout is aggregated — the per-server layout is
// never warm-started), the simplex runs from the planner's retained
// basis instead of from scratch.
func solveDispatchLPW(in *Input, comms []commodity, perServer bool, floors []float64, opts lp.Options, w *warmState) ([][]float64, float64, error) {
	if len(comms) == 0 {
		if floorsActive(in, floors) {
			return nil, 0, lp.ErrInfeasible
		}
		return nil, 0, nil
	}
	if perServer {
		return solvePerServerLP(in, comms, floors, opts)
	}
	d := buildDispatchLP(in, comms, floors)
	var res *lp.Result
	var err error
	if w != nil {
		res, err = w.solveModel(d.model, opts)
	} else {
		res, err = d.model.SolveOpts(opts)
	}
	if err != nil {
		return nil, 0, err
	}
	return d.extractRates(res), res.Objective, nil
}

// floorsActive reports whether any completion floor binds a type with
// positive offered demand.
func floorsActive(in *Input, floors []float64) bool {
	for k := 0; k < len(floors) && k < in.Sys.K(); k++ {
		if floors[k] <= 0 {
			continue
		}
		for s := range in.Arrivals {
			if in.Arrivals[s][k] > 0 {
				return true
			}
		}
	}
	return false
}

// solvePerServerLP is the faithful formulation with per-server variables
// λ_{k,q,s,i,l} and φ_{k,q,i,l}; it returns rates aggregated over servers.
func solvePerServerLP(in *Input, comms []commodity, floors []float64, opts lp.Options) ([][]float64, float64, error) {
	sys := in.Sys
	T := sys.Slot()
	m := lp.NewModel()

	xVar := make([][][]int, len(comms)) // [ci][i][s]
	fVar := make([][]int, len(comms))   // [ci][i]
	for ci, c := range comms {
		servers := sys.Centers[c.l].Servers
		fVar[ci] = make([]int, servers)
		xVar[ci] = make([][]int, servers)
		for i := 0; i < servers; i++ {
			fVar[ci][i] = m.AddVariable(fmt.Sprintf("phi_k%d_q%d_l%d_i%d", c.k, c.q, c.l, i), 0)
			xVar[ci][i] = make([]int, sys.S())
			for s := 0; s < sys.S(); s++ {
				coef := T * sys.UnitProfit(c.k, s, c.l, c.utility, in.Prices[c.l])
				xVar[ci][i][s] = m.AddVariable(fmt.Sprintf("lam_k%d_q%d_s%d_l%d_i%d", c.k, c.q, s, c.l, i), coef)
			}
		}
	}
	for ci, c := range comms {
		dc := &sys.Centers[c.l]
		for i := 0; i < dc.Servers; i++ {
			terms := []lp.Term{{Var: fVar[ci][i], Coef: dc.Capacity * dc.ServiceRate[c.k]}}
			for s := 0; s < sys.S(); s++ {
				terms = append(terms, lp.Term{Var: xVar[ci][i][s], Coef: -1})
			}
			m.AddConstraint(fmt.Sprintf("cap_k%d_q%d_l%d_i%d", c.k, c.q, c.l, i), terms, lp.GE, 1/c.deadline)
		}
	}
	for k := 0; k < sys.K(); k++ {
		for s := 0; s < sys.S(); s++ {
			var terms []lp.Term
			for ci, c := range comms {
				if c.k != k {
					continue
				}
				for i := range xVar[ci] {
					terms = append(terms, lp.Term{Var: xVar[ci][i][s], Coef: 1})
				}
			}
			if len(terms) > 0 {
				m.AddConstraint(fmt.Sprintf("arr_k%d_s%d", k, s), terms, lp.LE, in.Arrivals[s][k])
			}
		}
	}
	for l := 0; l < sys.L(); l++ {
		for i := 0; i < sys.Centers[l].Servers; i++ {
			var terms []lp.Term
			for ci, c := range comms {
				if c.l == l {
					terms = append(terms, lp.Term{Var: fVar[ci][i], Coef: 1})
				}
			}
			if len(terms) > 0 {
				m.AddConstraint(fmt.Sprintf("share_l%d_i%d", l, i), terms, lp.LE, 1)
			}
		}
	}
	for k := 0; k < sys.K() && k < len(floors); k++ {
		frac := floors[k]
		if frac <= 0 {
			continue
		}
		var terms []lp.Term
		for ci, c := range comms {
			if c.k != k {
				continue
			}
			for i := range xVar[ci] {
				for s := 0; s < sys.S(); s++ {
					terms = append(terms, lp.Term{Var: xVar[ci][i][s], Coef: 1})
				}
			}
		}
		var offered float64
		for s := 0; s < sys.S(); s++ {
			offered += in.Arrivals[s][k]
		}
		if len(terms) == 0 && frac*offered > 0 {
			terms = []lp.Term{{Var: fVar[0][0], Coef: 0}}
		}
		m.AddConstraint(fmt.Sprintf("floor_k%d", k), terms, lp.GE, frac*offered)
	}

	res, err := m.SolveOpts(opts)
	if err != nil {
		return nil, 0, err
	}
	rates := make([][]float64, len(comms))
	for ci := range comms {
		rates[ci] = make([]float64, sys.S())
		for i := range xVar[ci] {
			for s := 0; s < sys.S(); s++ {
				if v := res.Value(xVar[ci][i][s]); v > 0 {
					rates[ci][s] += v
				}
			}
		}
	}
	return rates, res.Objective, nil
}

// planFromRates turns per-commodity dispatch rates into a full Plan:
// filling the rate tensor, choosing the number of powered-on servers per
// center, and recomputing exact per-server shares at that count.
func planFromRates(in *Input, comms []commodity, rates [][]float64, consolidate, topUp bool) (*Plan, error) {
	sys := in.Sys
	plan := NewPlan(sys)
	for ci, c := range comms {
		for s, v := range rates[ci] {
			plan.Rate[c.k][c.q][s][c.l] = v
		}
	}
	for l := 0; l < sys.L(); l++ {
		if err := allocateCenter(in, plan, l, consolidate, topUp); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// activeKey identifies a used commodity within one center.
type activeKey struct{ k, q int }

// shareFeasTol is the single share-budget tolerance of allocateCenter:
// both the full-fleet feasibility gate and the consolidation binary
// search accept a server count whose summed shares overshoot 1 by at
// most this much. It matches the tolerance Verify is called with
// throughout the repo, so consolidation never settles on a count the
// verifier would reject — and, with one constant, the search cannot
// converge on a larger fleet than the gate itself accepts (the old
// 1e-9 search bound treated counts in the (1e-9, 1e-6] overshoot band
// as infeasible that the gate had already admitted).
const shareFeasTol = 1e-6

// allocateCenter decides ServersOn[l] and Phi[l] from the center's
// dispatched rates. The minimum server count n satisfies
//
//	Σ_{used (k,q)} ( Λ/(n·C·μ_k) + 1/(D_q·C·μ_k) ) ≤ 1,
//
// whose left side is decreasing in n; shares are then set to exactly meet
// each level deadline at that n.
func allocateCenter(in *Input, plan *Plan, l int, consolidate, topUp bool) error {
	sys := in.Sys
	dc := &sys.Centers[l]
	var used []activeKey
	var lams []float64
	for k := 0; k < sys.K(); k++ {
		for q := range plan.Rate[k] {
			if lam := plan.CenterRate(k, q, l); lam > 1e-9 {
				used = append(used, activeKey{k, q})
				lams = append(lams, lam)
			}
		}
	}
	if len(used) == 0 {
		plan.ServersOn[l] = 0
		return nil
	}
	shareAt := func(n int) float64 {
		var sum float64
		for i, a := range used {
			mu := dc.Capacity * dc.ServiceRate[a.k]
			d := sys.Classes[a.k].TUF.Level(a.q).Deadline
			sum += lams[i]/(float64(n)*mu) + 1/(d*mu)
		}
		return sum
	}
	n := dc.Servers
	if shareAt(n) > 1+shareFeasTol {
		return fmt.Errorf("core: center %d cannot host planned load on %d servers (share %g)", l, n, shareAt(n))
	}
	if consolidate {
		lo, hi := 1, dc.Servers // invariant: hi always feasible
		for lo < hi {
			mid := (lo + hi) / 2
			if shareAt(mid) <= 1+shareFeasTol {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		n = hi
	}
	plan.ServersOn[l] = n
	var total float64
	for i, a := range used {
		mu := dc.Capacity * dc.ServiceRate[a.k]
		d := sys.Classes[a.k].TUF.Level(a.q).Deadline
		phi := lams[i]/(float64(n)*mu) + 1/(d*mu)
		plan.Phi[l][a.k][a.q] = phi
		total += phi
	}
	if topUp && total < 1 {
		// Distribute leftover share proportionally to each commodity's
		// load, reducing its delay below the level deadline.
		var lamSum float64
		for _, v := range lams {
			lamSum += v
		}
		if lamSum > 0 {
			slack := 1 - total
			for i, a := range used {
				plan.Phi[l][a.k][a.q] += slack * lams[i] / lamSum
			}
		}
	}
	return nil
}

// planObjective evaluates paper Eq. 5 at the plan: Σ (U − cost)·λ·T using
// each commodity's level utility (the deadline is met with equality, so
// the level utility is the achieved utility), minus the idle draw of the
// powered-on servers (zero under the paper's per-request energy model).
func planObjective(in *Input, plan *Plan) float64 {
	sys := in.Sys
	T := sys.Slot()
	var sum float64
	for l, n := range plan.ServersOn {
		sum -= sys.IdleCost(l, in.Prices[l]) * float64(n)
	}
	for k := 0; k < sys.K(); k++ {
		levels := sys.Classes[k].TUF.Levels()
		for q := range plan.Rate[k] {
			for s := range plan.Rate[k][q] {
				for l, v := range plan.Rate[k][q][s] {
					if v <= 0 {
						continue
					}
					sum += T * v * sys.UnitProfit(k, s, l, levels[q].Utility, in.Prices[l])
				}
			}
		}
	}
	return sum
}

// sortCommodities orders commodities canonically (by k, q, l). Every
// search path sorts before solving, which keys the memo cache and makes
// the LP layout — hence the committed plan — independent of both subset
// construction order and worker count.
func sortCommodities(comms []commodity) {
	sort.Slice(comms, func(i, j int) bool {
		a, b := comms[i], comms[j]
		if a.k != b.k {
			return a.k < b.k
		}
		if a.q != b.q {
			return a.q < b.q
		}
		return a.l < b.l
	})
}
