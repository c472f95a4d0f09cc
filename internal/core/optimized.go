package core

import (
	"fmt"
	"math"
	"slices"

	"profitlb/internal/datacenter"
	"profitlb/internal/linalg"
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
	// MinCompletion optionally forces serving at least the given fraction
	// of each type's offered arrivals (one entry per class, values in
	// [0,1]). The paper's profit maximization treats types with "no
	// priority difference", which can starve a low-value type entirely;
	// floors buy fairness at a measurable profit cost. Plan returns an
	// error when the floors exceed what the fleet can serve.
	MinCompletion []float64
	// EngineOptions carries the solver and search-engine knobs shared
	// with LevelSearch and HorizonPlanner. WarmStart is ignored under
	// PerServer, whose variable layout changes with the commodity set too
	// quickly to seed.
	EngineOptions
}

// EngineOptions are the solver and plan-search knobs every LP-backed
// planner carries (embedded in Optimized, LevelSearch and
// HorizonPlanner; the constructors switch WarmStart on), together
// with the warm-start state those knobs govern. Every LP the
// planners solve takes one path: build → engine → lp.Solver's warm
// ladder → the kernel the row count selects.
type EngineOptions struct {
	// LPOpts tunes the simplex solver.
	LPOpts lp.Options
	// WarmStart re-solves successive LPs (the next slot's dispatch LP,
	// the next horizon window) from the optimal basis of the previous
	// one instead of from scratch (see DESIGN.md §12). Warm results are
	// audited against the model before use, but may differ from cold
	// results at floating-point round-off level; WarmStart false is the
	// cold dense reference — every LP solved from scratch by the two-phase
	// simplex.
	WarmStart bool
	// Sparse is ignored: lp.Solver picks the warm kernel from the LP's row
	// count alone.
	//
	// Deprecated: bench/slots.go still reads it, and the PR that stopped
	// honouring it could not edit bench/; ROADMAP item 8 deletes it.
	Sparse bool
	// Stats, when non-nil, receives the engine's solver counters after
	// each Plan call. Diagnostics only.
	Stats *SearchStats
	// Obs, when non-nil, streams the engine's LP-solve counters
	// (metrics plus one engine event per Plan call) to the
	// observability layer. It only watches — plans are bit-identical
	// with or without a scope.
	Obs *obs.Scope
	// warm is the retained cross-call solver state behind WarmStart,
	// claimed by each Plan call in turn (see warm.go). Holding it here
	// means a planner value must not be copied once it has planned.
	warm warmState
	// names is the planner's dispatch-LP name table (see names.go), the
	// one thing memoised across slots whatever WarmStart says.
	names *dispatchNames
	// scratch is the storage each Plan call refills instead of allocating
	// (see planScratch); it carries no state from one call to the next.
	scratch planScratch
}

// NewOptimized returns the planner with the paper-faithful defaults:
// aggregated variables, refinement and warm-started re-solves on.
func NewOptimized() *Optimized {
	return &Optimized{Refine: true, EngineOptions: EngineOptions{WarmStart: true}}
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
	eng := o.open(in, o.Name(), o.PerServer, o.Refine)
	defer eng.close()
	eng.single = !o.Refine
	full, capped := eng.admit(o.MinCompletion)
	captured, err := eng.prologue(capture, func() (assignment, error) {
		return o.solveSubset(eng, capped, nil, noCutoff)
	})
	if err != nil {
		return nil, err
	}
	best := captured
	if o.Refine {
		improved, err := o.toggleSearch(eng, full, best)
		if err != nil {
			return nil, err
		}
		best = improved
		// Second seed: the greedy single-level commitment, which excludes
		// all but one level per (type, center) and sometimes escapes the
		// full set's reservation load.
		if multiLevel(in) {
			seed, err := o.greedySeed(eng, captured)
			if err != nil {
				return nil, err
			}
			// The capture's own answer as the seed (the climb took no move
			// from it) would retrace the first search question for question.
			if seed.px != nil && seed.px == captured.px {
				return eng.planOf(best)
			}
			// Floors are this planner's own constraint: the greedy search
			// knows nothing of them, so under them its subset is solved
			// again, from its own basis.
			seedEval := seed
			if len(o.MinCompletion) > 0 {
				if seedEval, err = o.solveSubset(eng, seed.comms, seed.px, noCutoff); err != nil {
					return nil, err
				}
			}
			fromSeed, err := o.toggleSearch(eng, full, seedEval)
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
	return eng.planOf(best)
}

// routePass is one Input's per-request route costs: at [k·L + l], the
// energy cost E of serving a type-k request at center l and the cheapest
// transfer into it, min over front-ends s of T_s. A route earns
// UnitProfit's (u − E) − T_s, and IEEE subtraction is monotone, so the
// best route over front-ends, max_s of that, is exactly (u − E) − min_s T.
// A planner prices it again every call, never carrying it across calls: an
// outage or a slowed center hands the planner another System each slot.
type routePass struct {
	L            int
	energy, minT []float64
}

// price fills the pass for in, over what it held before.
func (r *routePass) price(in *Input) {
	sys := in.Sys
	K, L := sys.K(), sys.L()
	r.L, r.energy, r.minT = L, linalg.Resized(r.energy, K*L), linalg.Resized(r.minT, K*L)
	for k := 0; k < K; k++ {
		for l := 0; l < L; l++ {
			t := math.Inf(1)
			for s := 0; s < sys.S(); s++ {
				t = min(t, sys.TransferCost(k, s, l))
			}
			r.energy[k*L+l], r.minT[k*L+l] = sys.EnergyCost(k, l, in.Prices[l]), t
		}
	}
}

// best is the best per-request profit, over front-ends, of serving class k
// at center l for utility u.
func (r *routePass) best(k, l int, u float64) float64 {
	i := k*r.L + l
	return (u - r.energy[i]) - r.minT[i]
}

// admissible appends to out every (k, q, l) whose best route earns a
// positive per-request profit, in (k, q, l) order; the LP would never use
// the others, and omitting them avoids the paper's zero-load share
// reservation for them. Types carrying a completion floor are admitted
// regardless of profitability — the floor may force serving them at a
// loss.
func (r *routePass) admissible(in *Input, floors []float64, out []commodity) []commodity {
	sys := in.Sys
	for k := 0; k < sys.K(); k++ {
		floored := k < len(floors) && floors[k] > 0
		tf := sys.Classes[k].TUF
		for q := 0; q < tf.NumLevels(); q++ {
			lev := tf.Level(q)
			for l := 0; l < sys.L(); l++ {
				if best := r.best(k, l, lev.Utility); best > 0 || floored {
					out = append(out, commodity{k: k, q: q, l: l, utility: lev.Utility, deadline: lev.Deadline, bestCoef: best, floored: floored})
				}
			}
		}
	}
	return out
}

// admissibleCommodities is routePass.admissible into a new list, off a
// pass of its own.
func admissibleCommodities(in *Input, floors []float64) []commodity {
	var r routePass
	r.price(in)
	return r.admissible(in, floors, nil)
}

// admission is what one Input's commodity lists are built in, held by
// their owner and refilled with [:0] every call: the route pass, the
// admissible list, the capped list, and capReservations' flags and
// buckets. Nothing in it outlives the call as state.
type admission struct {
	routes       routePass
	full, capped []commodity
	gone         []bool
	at           buckets
}

// admit lists the admissible commodities off a.routes, which must be
// priced for in, and caps them: the full list and its capped copy, both
// a's until its next admit.
func (a *admission) admit(in *Input, floors []float64) (full, capped []commodity) {
	a.full = a.routes.admissible(in, floors, a.full[:0])
	a.capped = a.capReservations(in, a.full, a.capped[:0])
	return a.full, a.capped
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
// fleet can serve" failure. A commodity whose reservation alone
// overflows the server can never be served, and goes before any value
// ordering: evicting cheaper commodities first would strip the center of
// everything it can serve. The commodities are bucketed by center once
// and each center evicts within its bucket; the input slice is not
// modified and the survivors, in its order, are appended to out.
func (a *admission) capReservations(in *Input, orig, out []commodity) []commodity {
	sys := in.Sys
	a.gone = linalg.Resized(a.gone, len(orig))
	gone := a.gone
	clear(gone)
	for _, at := range a.at.group(len(orig), sys.L(), func(ci int) int { return orig[ci].l }) {
		unfit := true // an unfittable commodity overflows the center: checked on the first overflow
		for {
			var sum float64
			for _, ci := range at {
				sum += reservation(sys, orig[ci])
			}
			if sum <= reserveMargin {
				break
			}
			if unfit {
				unfit = false
				at = slices.DeleteFunc(at, func(ci int) bool {
					gone[ci] = reservation(sys, orig[ci]) > reserveMargin
					return gone[ci]
				})
				continue
			}
			worst := worstEvictable(orig, at)
			if worst < 0 {
				break
			}
			gone[at[worst]] = true
			at = append(at[:worst], at[worst+1:]...)
		}
	}
	for ci, c := range orig {
		if !gone[ci] {
			out = append(out, c)
		}
	}
	return out
}

// capReservations is admission.capReservations into a new list.
func capReservations(in *Input, orig []commodity) []commodity {
	return new(admission).capReservations(in, orig, nil)
}

// reserveMargin is the share of one server a center's zero-load
// reservations may add up to.
const reserveMargin = 0.999

// reservation is the share commodity c holds at its center before any
// load arrives, 1/(D·C·μ).
func reservation(sys *datacenter.System, c commodity) float64 {
	dc := &sys.Centers[c.l]
	return 1 / (c.deadline * dc.Capacity * dc.ServiceRate[c.k])
}

// worstEvictable picks the eviction victim among comms[ci] for ci in at
// (every commodity when at is nil) and returns its position in at: the
// lowest bestCoef among non-floored commodities, falling back to floored
// ones only when no other candidate exists.
func worstEvictable(comms []commodity, at []int) int {
	n := len(at)
	if at == nil {
		n = len(comms)
	}
	worst, worstVal := -1, math.Inf(1)
	worstFl, worstFlVal := -1, math.Inf(1)
	for p := 0; p < n; p++ {
		c := &comms[p]
		if at != nil {
			c = &comms[at[p]]
		}
		if c.floored {
			if c.bestCoef < worstFlVal {
				worstFl, worstFlVal = p, c.bestCoef
			}
		} else if c.bestCoef < worstVal {
			worst, worstVal = p, c.bestCoef
		}
	}
	if worst < 0 {
		return worstFl
	}
	return worst
}

func dropWorst(comms []commodity) []commodity {
	worst := worstEvictable(comms, nil)
	if worst < 0 {
		return comms[:0]
	}
	return append(comms[:worst], comms[worst+1:]...)
}

// solveSubset solves the dispatch LP over comms, which it takes over: the
// slice is put in canonical order and, without completion floors, shrunk
// on a numerically rare infeasibility, which retries with the least
// valuable commodity dropped; with floors, an infeasible subset is
// reported as a -Inf assignment so the subset search can route around it.
// from is the incumbent the subset neighbours (nil: none), whose kernel
// the solve starts from, and cutoff what it must beat (see engine.solve).
func (o *Optimized) solveSubset(eng *engine, comms []commodity, from *prices, cutoff float64) (assignment, error) {
	// Canonical order: keeps the LP layout independent of how the
	// candidate subset was constructed.
	sortCommodities(comms)
	withFloors := floorsActive(eng.in, o.MinCompletion)
	for {
		sol, err := eng.solve(comms, o.MinCompletion, from, cutoff)
		if err == nil {
			return assignment{comms: comms, rates: sol.rates, obj: sol.obj, px: sol.px}, nil
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

// toggleSearch hill-climbs over commodity subsets by single add/remove
// moves, starting from start and drawing candidates from full (both in
// canonical order). A move the incumbent's shadow prices bound at no
// improvement is rejected before anything is built (see prices.bound);
// the others are solved from the incumbent's kernel under its cutoff, in
// candidate order, and a pass goes on from the candidate it accepted, for
// at most 60 passes. It is circular: a pass with no accept stops at the
// candidate after the last accepted one, every move being refused then.
func (o *Optimized) toggleSearch(eng *engine, full []commodity, start assignment) (assignment, error) {
	sys := eng.in.Sys
	best := start
	// at[i] is full[i]'s position in best.comms, -1 while it is out; an
	// accept rewrites it.
	at := make([]int, len(full))
	place := func() {
		ci := 0
		for i := range full {
			for ci < len(best.comms) && compareCommodities(best.comms[ci], full[i]) < 0 {
				ci++
			}
			at[i] = -1
			if ci < len(best.comms) && compareCommodities(best.comms[ci], full[i]) == 0 {
				at[i] = ci
			}
		}
	}
	place()
	// trialFor builds, in canonical order, the subset that toggles full[i]
	// against the current best set; ok is false when adding it would
	// overload its center's reservations (the move is skipped: best's own
	// fit everywhere, so only that center can overflow).
	trialFor := func(i int) (trial []commodity, ok bool) {
		cand := full[i]
		if ci := at[i]; ci >= 0 {
			trial = make([]commodity, 0, len(best.comms)-1)
			return append(append(trial, best.comms[:ci]...), best.comms[ci+1:]...), true
		}
		var reserved float64
		for _, c := range best.comms {
			if c.l == cand.l {
				reserved += reservation(sys, c)
			}
		}
		if reserved+reservation(sys, cand) > reserveMargin {
			return nil, false
		}
		ci, _ := slices.BinarySearchFunc(best.comms, cand, compareCommodities)
		trial = make([]commodity, 0, len(best.comms)+1)
		return append(append(append(trial, best.comms[:ci]...), cand), best.comms[ci:]...), true
	}
	last := len(full) // the candidate accepted last
	for pass := 0; pass < 60; pass++ {
		improved := false
		for i := range full {
			if !improved && i > last {
				return best, nil
			}
			var add *commodity
			if at[i] < 0 {
				add = &full[i]
			}
			if eng.bounded(&best, at[i], add) {
				continue
			}
			trial, ok := trialFor(i)
			if !ok {
				continue // skipped move
			}
			a, err := o.solveSubset(eng, trial, best.px, cutoffOf(best.obj))
			if err != nil {
				return assignment{}, err
			}
			if a.obj <= best.obj+improveTol {
				continue
			}
			best, improved, last = a, true, i
			place()
		}
		if !improved {
			break
		}
	}
	return best, nil
}

// greedySeed runs LevelSearch's greedy single-level commitment on the
// caller's engine to seed the subset search. Its start, every pair at its
// top level, is re-solved on the greedy chain, unless it is the capture's
// question (the same set, no floors), whose answer it then takes.
func (o *Optimized) greedySeed(eng *engine, captured assignment) (assignment, error) {
	pairs := allPairs(eng.in.Sys)
	levels := make([]int, len(pairs))
	kept, _ := eng.pick(pairs, levels)
	start, err := captured, error(nil)
	if start.levels = levels; len(o.MinCompletion) > 0 || !sameSet(kept, captured.comms) {
		start, err = eng.prologue(greedyStart, func() (assignment, error) {
			return eng.evaluate(levels, kept, nil, noCutoff)
		})
	}
	if err != nil {
		return assignment{}, err
	}
	return climb(eng, pairs, start)
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

// dispatchLP is the slot LP together with the handles needed to read the
// solution and its shadow prices back out.
type dispatchLP struct {
	model *lp.Model
	comms []commodity
	// xVar[ci] holds commodity ci's λ variables, S per server group
	// (index g·S + s); fVar[ci][g] is the group's share variable.
	xVar [][]int
	fVar [][]int
	// arrRow[k][s], floorRow[k] and shareRow[l] index constraint rows (-1
	// if absent; per-server, shareRow[l] is the last server's row).
	// floorRow is empty when the LP carries no floors.
	arrRow   [][]int
	floorRow []int
	shareRow []int
	// What a solve unit's next build reuses besides the above: the slabs
	// behind the handles and row tables, and build's scratch.
	handles, arrRows  []int
	byClass, byCenter buckets
	terms             []lp.Term
	// shape and names are what the model's structure was built from, by
	// value (see reshape), and rebuilt says the last build had to build it
	// again. forget makes every build start over in a new model, as when
	// nothing was held — the differential tests' seam, set by nothing else.
	shape           []float64
	names           *dispatchNames
	rebuilt, forget bool
}

// buildDispatchLP assembles the slot LP over the given commodities:
// objective = paper Eq. 5, constraints = linearized Constraint 6,
// per-front-end arrival budgets (Constraint 7) and share caps
// (Constraint 8). The M_l homogeneous servers of a center enter as one
// group of M_l (the aggregated layout: M·C·μ·φ − Σ_s λ ≥ M/D) or, with
// perServer, as M_l groups of one — the paper's faithful λ_{k,s,i,l},
// φ_{k,i,l} variables, equal in value and much larger.
func buildDispatchLP(in *Input, comms []commodity, floors []float64, perServer bool, names *dispatchNames) *dispatchLP {
	return new(dispatchLP).build(in, comms, floors, perServer, names)
}

// build is buildDispatchLP into d, over the LP it held before, which
// nothing may still read. From slot to slot only λ and p move (paper
// Eq. 5; the coefficients of Constraints 6–8 are the topology's), so the
// LP is built as two things: its structure — variables, names, rows,
// terms, senses, the constant right-hand sides — only when d's was built
// from other inputs, and its numbers always, by the one pass a fresh build
// runs too. A held model whose structure stands sees SetObjective and
// SetRHS alone, so the solver that factorized it re-solves it hot.
func (d *dispatchLP) build(in *Input, comms []commodity, floors []float64, perServer bool, names *dispatchNames) *dispatchLP {
	d.comms = comms
	if d.forget {
		d.model = nil
	}
	if d.rebuilt = d.reshape(in, floors, perServer, names); d.rebuilt {
		if d.model == nil {
			d.model = lp.NewModel()
		}
		d.model.Reset()
		d.structure(in, floors, perServer, block{model: d.model})
	}
	d.numbers(in, floors)
	return d
}

// reshape records every input the structure pass reads — layout, name
// table, dimensions, each commodity's (k, q, l, deadline) with its center's
// M, C and μ_k, and which floor rows exist — and reports whether any
// differs from what d's structure was built from: one comparison by value
// in place of an invalidation rule per coefficient.
func (d *dispatchLP) reshape(in *Input, floors []float64, perServer bool, names *dispatchNames) (changed bool) {
	sys := in.Sys
	nFloors := min(sys.K(), len(floors))
	n := 4 + 7*len(d.comms) + nFloors
	changed = d.model == nil || d.names != names || len(d.shape) != n
	d.names, d.shape = names, linalg.Resized(d.shape, n)
	at := 0
	put := func(vs ...float64) {
		for _, v := range vs {
			if d.shape[at] != v {
				d.shape[at], changed = v, true
			}
			at++
		}
	}
	layout := 0.0
	if perServer {
		layout = 1
	}
	put(layout, float64(sys.S()), float64(sys.K()), float64(sys.L()))
	for _, c := range d.comms {
		dc := &sys.Centers[c.l]
		put(float64(c.k), float64(c.q), float64(c.l), c.deadline, float64(dc.Servers), dc.Capacity, dc.ServiceRate[c.k])
	}
	for k := 0; k < nFloors; k++ {
		// 0: no floor row; 1: one over the class's commodities; 2: the
		// infeasible one of a class owed service that none can give.
		row := 0.0
		if floors[k] > 0 {
			row = 1
			if floors[k]*in.Offered(k) > 0 && !slices.ContainsFunc(d.comms, func(c commodity) bool { return c.k == k }) {
				row = 2
			}
		}
		put(row)
	}
	return changed
}

// block is where structure writes a dispatch LP: into model — a slot
// planner's own, emptied, or a horizon window's, as its slot t
// (horizon.go) — with every name spelled behind prefix and, when arr is
// set, the terms of the arrival row of class k at front-end s handed to it,
// to add the columns that move arrival budget into and out of the slot.
type block struct {
	model  *lp.Model
	prefix string
	arr    func(k, s int, terms []lp.Term) []lp.Term
}

// structure appends the LP's variables and rows to at.model, d's from now
// on, every number the numbers pass owns left at zero.
func (d *dispatchLP) structure(in *Input, floors []float64, perServer bool, at block) {
	sys, comms, names := in.Sys, d.comms, d.names
	S := sys.S()
	d.model = at.model
	m := d.model
	// groups returns center l's group count and each group's size; name
	// spells a variable or row, tagged with its group when per-server.
	groups := func(l int) (int, float64) {
		if perServer {
			return sys.Centers[l].Servers, 1
		}
		return 1, float64(sys.Centers[l].Servers)
	}
	name := func(kind, k, q, s, l, g int) string {
		if !perServer {
			g = -1
		}
		spelled := names.name(kind, k, q, s, l, g)
		if at.prefix != "" { // a slot's own LP keeps the table's string, call-free
			spelled = at.prefix + spelled
		}
		return spelled
	}
	// Everything is sized before it is filled: ng groups in all give
	// ng·(S+1) columns, each in one cap row and one arr or share row, and
	// a λ in its class's floor row if there is one.
	ng, shareRows := 0, sys.L()
	for _, c := range comms {
		count, _ := groups(c.l)
		ng += count
	}
	if perServer {
		shareRows = ng
	}
	nTerms := 2 * ng * (S + 1)
	if len(floors) > 0 {
		nTerms += ng * S
	}
	m.Grow(ng*(S+1), ng+sys.K()*(S+1)+shareRows, nTerms)
	byClass := d.byClass.group(len(comms), sys.K(), func(ci int) int { return comms[ci].k })
	byCenter := d.byCenter.group(len(comms), sys.L(), func(ci int) int { return comms[ci].l })
	terms := d.terms

	d.xVar, d.fVar = linalg.Resized(d.xVar, len(comms)), linalg.Resized(d.fVar, len(comms))
	d.handles = linalg.Resized(d.handles, ng*(S+1))
	handles := d.handles
	for ci, c := range comms {
		count, _ := groups(c.l)
		vars := handles[:count*(S+1)]
		handles = handles[len(vars):]
		d.fVar[ci], d.xVar[ci] = vars[:count], vars[count:]
		for g := 0; g < count; g++ {
			d.fVar[ci][g] = m.AddVariable(name(phiName, c.k, c.q, -1, c.l, g), 0)
			for s := 0; s < S; s++ {
				d.xVar[ci][g*S+s] = m.AddVariable(name(lamName, c.k, c.q, s, c.l, g), 0)
			}
		}
	}
	for ci, c := range comms {
		dc := &sys.Centers[c.l]
		_, n := groups(c.l)
		for g, f := range d.fVar[ci] {
			terms = append(terms[:0], lp.Term{Var: f, Coef: n * dc.Capacity * dc.ServiceRate[c.k]})
			for _, x := range d.xVar[ci][g*S : (g+1)*S] {
				terms = append(terms, lp.Term{Var: x, Coef: -1})
			}
			m.AddConstraint(name(capName, c.k, c.q, -1, c.l, g), terms, lp.GE, n/c.deadline)
		}
	}
	d.arrRow, d.arrRows = linalg.Resized(d.arrRow, sys.K()), linalg.Resized(d.arrRows, sys.K()*S)
	arrRows := d.arrRows
	for k := 0; k < sys.K(); k++ {
		d.arrRow[k], arrRows = arrRows[:S:S], arrRows[S:]
		for s := 0; s < S; s++ {
			d.arrRow[k][s] = -1
			terms = terms[:0]
			for _, ci := range byClass[k] {
				for j := s; j < len(d.xVar[ci]); j += S {
					terms = append(terms, lp.Term{Var: d.xVar[ci][j], Coef: 1})
				}
			}
			if at.arr != nil {
				terms = at.arr(k, s, terms)
			}
			if len(terms) > 0 {
				d.arrRow[k][s] = m.AddConstraint(name(arrName, k, -1, s, -1, -1), terms, lp.LE, 0)
			}
		}
	}
	// Completion floors (extension): Σ_{q,s,l} λ ≥ frac·Σ_s arrivals.
	d.floorRow = linalg.Resized(d.floorRow, min(sys.K(), len(floors)))
	for k := range d.floorRow {
		d.floorRow[k] = -1
		if floors[k] <= 0 {
			continue
		}
		terms = terms[:0]
		for _, ci := range byClass[k] {
			for _, x := range d.xVar[ci] {
				terms = append(terms, lp.Term{Var: x, Coef: 1})
			}
		}
		if len(terms) == 0 && floors[k]*in.Offered(k) > 0 {
			// No admissible commodity can serve the type at all: encode
			// an explicitly infeasible row so the caller sees it.
			terms = append(terms, lp.Term{Var: d.fVar[0][0], Coef: 0})
		}
		d.floorRow[k] = m.AddConstraint(name(floorName, k, -1, -1, -1, -1), terms, lp.GE, 0)
	}
	d.shareRow = linalg.Resized(d.shareRow, sys.L())
	for l := 0; l < sys.L(); l++ {
		d.shareRow[l] = -1
		count, _ := groups(l)
		for g := 0; g < count; g++ {
			terms = terms[:0]
			for _, ci := range byCenter[l] {
				terms = append(terms, lp.Term{Var: d.fVar[ci][g], Coef: 1})
			}
			if len(terms) > 0 {
				d.shareRow[l] = m.AddConstraint(name(shareName, -1, -1, -1, l, g), terms, lp.LE, 1)
			}
		}
	}
	d.terms = terms
}

// numbers writes what moves with the slot into d.model: each λ's
// T·UnitProfit, each arrival row's budget, each floor row's quota. A
// commodity's energy cost is priced once, not once per front-end:
// UnitProfit is (u − E) − T_s, each cost rounded as UnitProfit rounds it.
func (d *dispatchLP) numbers(in *Input, floors []float64) {
	sys, m := in.Sys, d.model
	T, S := sys.Slot(), sys.S()
	for ci, c := range d.comms {
		xs := d.xVar[ci]
		net := c.utility - float64(sys.EnergyCost(c.k, c.l, in.Prices[c.l]))
		for s := 0; s < S; s++ {
			coef := T * (net - float64(sys.TransferCost(c.k, s, c.l)))
			for j := s; j < len(xs); j += S {
				m.SetObjective(xs[j], coef)
			}
		}
	}
	for k, rows := range d.arrRow {
		for s, row := range rows {
			if row >= 0 {
				m.SetRHS(row, in.Arrivals[s][k])
			}
		}
	}
	for k, row := range d.floorRow {
		if row >= 0 {
			m.SetRHS(row, floors[k]*in.Offered(k))
		}
	}
}

// buckets is the storage of group, which buckets the indices 0..n-1 by key
// (in [0, nb)), keeping index order within a bucket, on one slab, and is
// called again and again.
type buckets struct {
	of         [][]int
	size, slab []int
}

func (b *buckets) group(n, nb int, key func(int) int) [][]int {
	b.of, b.size, b.slab = linalg.Resized(b.of, nb), linalg.Resized(b.size, nb), linalg.Resized(b.slab, n)
	clear(b.size)
	for i := 0; i < n; i++ {
		b.size[key(i)]++
	}
	slab := b.slab
	for g, sz := range b.size {
		b.of[g], slab = slab[:0:sz], slab[sz:]
	}
	for i := 0; i < n; i++ {
		g := key(i)
		b.of[g] = append(b.of[g], i)
	}
	return b.of
}

// extractRates reads the per-commodity dispatch rates out of a solution,
// summed over a center's server groups, onto one slab: into's, refilled,
// or, with into nil, a new one the solution owns. The rows are
// d's commodities', or with at those of d.comms[at[i]] for each i.
func (d *dispatchLP) extractRates(res *lp.Result, into *rateRows, at []int) [][]float64 {
	if into == nil {
		into = new(rateRows)
	}
	n := len(d.comms)
	if at != nil {
		n = len(at)
	}
	if n == 0 {
		return into.cut(0, 0)
	}
	S := len(d.xVar[0]) / len(d.fVar[0])
	rates := into.cut(n, S)
	for ci := range rates {
		xs := d.xVar[ci]
		if at != nil {
			xs = d.xVar[at[ci]]
		}
		for j, x := range xs {
			if v := res.Value(x); v > 0 {
				rates[ci][j%S] += v
			}
		}
	}
	return rates
}

// rateRows is extractRates' storage: n rows of S zeros cut from one slab.
type rateRows struct {
	rows [][]float64
	slab []float64
}

func (r *rateRows) cut(n, S int) [][]float64 {
	r.rows, r.slab = linalg.Resized(r.rows, n), linalg.Resized(r.slab, n*S)
	clear(r.slab)
	slab := r.slab
	for i := range r.rows {
		r.rows[i], slab = slab[:S:S], slab[S:]
	}
	return r.rows
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

// planFromRates turns per-commodity dispatch rates into a full Plan:
// filling the rate tensor, choosing the number of powered-on servers per
// center, and recomputing exact per-server shares at that count. comms is
// in canonical order; each one's rates are summed once, in front-end
// order, and each center reads its commodities from r, refilled.
func planFromRates(in *Input, comms []commodity, rates [][]float64, r *readout) (*Plan, error) {
	sys := in.Sys
	plan := NewPlan(sys)
	r.lams = linalg.Resized(r.lams, len(comms))
	for ci, c := range comms {
		var lam float64
		for s, v := range rates[ci] {
			plan.Rate[c.k][c.q][s][c.l] = v
			lam += v
		}
		r.lams[ci] = lam
	}
	for l, at := range r.at.group(len(comms), sys.L(), func(ci int) int { return comms[ci].l }) {
		if err := allocateCenter(in, plan, l, comms, at, r.lams); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// readout is planFromRates' storage: each commodity's aggregate rate
// Λ_{k,q,l}, and the commodities bucketed by center.
type readout struct {
	lams []float64
	at   buckets
}

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
// dispatched rates: comms[ci] for ci in at, in canonical order, each
// carrying lams[ci], used when that exceeds RateEps. The minimum server
// count n satisfies
//
//	Σ_{used (k,q)} ( Λ/(n·C·μ_k) + 1/(D_q·C·μ_k) ) ≤ 1,
//
// whose left side is decreasing in n; shares are then set to exactly meet
// each level deadline at that n.
func allocateCenter(in *Input, plan *Plan, l int, comms []commodity, at []int, lams []float64) error {
	sys := in.Sys
	dc := &sys.Centers[l]
	if !slices.ContainsFunc(at, func(ci int) bool { return lams[ci] > RateEps }) {
		plan.ServersOn[l] = 0
		return nil
	}
	// phi is commodity ci's per-server share at n servers.
	phi := func(ci, n int) float64 {
		c := &comms[ci]
		mu := dc.Capacity * dc.ServiceRate[c.k]
		d := sys.Classes[c.k].TUF.Level(c.q).Deadline
		return lams[ci]/(float64(n)*mu) + 1/(d*mu)
	}
	shareAt := func(n int) float64 {
		var sum float64
		for _, ci := range at {
			if lams[ci] > RateEps {
				sum += phi(ci, n)
			}
		}
		return sum
	}
	if share := shareAt(dc.Servers); share > 1+shareFeasTol {
		return fmt.Errorf("core: center %d cannot host planned load on %d servers (share %g)", l, dc.Servers, share)
	}
	lo, hi := 1, dc.Servers // invariant: hi always feasible
	for lo < hi {
		mid := (lo + hi) / 2
		if shareAt(mid) <= 1+shareFeasTol {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	n := hi
	plan.ServersOn[l] = n
	for _, ci := range at {
		if lams[ci] > RateEps {
			plan.Phi[l][comms[ci].k][comms[ci].q] = phi(ci, n)
		}
	}
	return nil
}

// planObjective evaluates paper Eq. 5 at the plan: Σ (U − cost)·λ·T using
// each commodity's level utility (the deadline is met with equality, so
// the level utility is the achieved utility), minus the idle draw of the
// powered-on servers (zero under the paper's per-request energy model).
// Each cell's UnitProfit is (u − E) − T_s with E read off r, the pass
// priced for in.
func planObjective(in *Input, plan *Plan, r *routePass) float64 {
	sys := in.Sys
	T := sys.Slot()
	var sum float64
	for l, n := range plan.ServersOn {
		sum -= sys.IdleCost(l, in.Prices[l]) * float64(n)
	}
	for k := 0; k < sys.K(); k++ {
		tf := sys.Classes[k].TUF
		for q := range plan.Rate[k] {
			u := tf.Level(q).Utility
			for s := range plan.Rate[k][q] {
				for l, v := range plan.Rate[k][q][s] {
					if v <= 0 {
						continue
					}
					sum += T * v * ((u - r.energy[k*r.L+l]) - sys.TransferCost(k, s, l))
				}
			}
		}
	}
	return sum
}

// planOf reads the call's chosen assignment out as its Plan (see
// planFromRates), valued by Eq. 5 off the call's route pass.
func (e *engine) planOf(best assignment) (*Plan, error) {
	plan, err := planFromRates(e.in, best.comms, best.rates, &e.scratch.read)
	if err != nil {
		return nil, err
	}
	plan.Objective = planObjective(e.in, plan, &e.scratch.routes)
	return plan, nil
}

// sortCommodities orders commodities canonically (by k, q, l). Every
// search path sorts before solving, which makes the LP layout — hence the
// committed plan — independent of subset construction order. Most lists arrive sorted (admission builds in
// (k, q, l) order and capping keeps it) and are left as they are.
func sortCommodities(comms []commodity) {
	if !slices.IsSortedFunc(comms, compareCommodities) {
		slices.SortFunc(comms, compareCommodities)
	}
}

// sameSet reports whether two canonical lists hold the same (k, q, l)s.
func sameSet(a, b []commodity) bool {
	return slices.EqualFunc(a, b, func(x, y commodity) bool { return compareCommodities(x, y) == 0 })
}

func compareCommodities(a, b commodity) int {
	if a.k != b.k {
		return a.k - b.k
	}
	if a.q != b.q {
		return a.q - b.q
	}
	return a.l - b.l
}
