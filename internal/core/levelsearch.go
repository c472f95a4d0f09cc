package core

import (
	"fmt"
	"math"

	"profitlb/internal/datacenter"
	"profitlb/internal/lp"
)

// Strategy selects how LevelSearch explores level assignments.
type Strategy int

// Search strategies.
const (
	// Auto enumerates exhaustively when the assignment space is at most
	// maxExhaustive and branches-and-bounds otherwise.
	Auto Strategy = iota
	// Exhaustive enumerates every assignment.
	Exhaustive
	// Greedy hill-climbs from the all-tightest-level assignment.
	Greedy
	// BranchBound performs depth-first search with an LP relaxation bound.
	BranchBound
)

// maxExhaustive is the largest assignment count Auto enumerates.
const maxExhaustive = 4096

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Exhaustive:
		return "exhaustive"
	case Greedy:
		return "greedy"
	case BranchBound:
		return "branch-and-bound"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// LevelSearch reproduces the discrete solving style of the paper's
// CPLEX/AIMMS formulation: every (type, data center) pair commits to one
// TUF level — the discrete choice the big-M series of Section IV encodes —
// and the residual problem is the one-level LP of Section IV-1. The
// planner searches the assignment space for the most profitable
// commitment.
//
// Optimized's split-commodity LP is at least as good on homogeneous
// centers (it may mix levels within a center); LevelSearch exists as the
// faithful discrete comparator and for the solver-cost study of Fig. 11.
type LevelSearch struct {
	// Strategy picks the exploration order; Auto by default.
	Strategy Strategy
	// PerServer uses the paper-faithful per-server LP layout.
	PerServer bool
	// EngineOptions carries the solver and search-engine knobs, exactly
	// as on Optimized (WarmStart is ignored under PerServer).
	EngineOptions
}

// NewLevelSearch returns a LevelSearch with the defaults used in the
// paper reproduction (auto strategy, warm starts on).
func NewLevelSearch() *LevelSearch {
	return &LevelSearch{EngineOptions: EngineOptions{WarmStart: true}}
}

// Name implements Planner.
func (ls *LevelSearch) Name() string { return "level-search/" + ls.Strategy.String() }

// pair enumerates the (k, l) grid.
type pair struct{ k, l int }

func allPairs(sys *datacenter.System) []pair {
	var pairs []pair
	for k := 0; k < sys.K(); k++ {
		for l := 0; l < sys.L(); l++ {
			pairs = append(pairs, pair{k, l})
		}
	}
	return pairs
}

// Plan implements Planner.
func (ls *LevelSearch) Plan(in *Input) (*Plan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sys := in.Sys

	pairs := allPairs(sys)
	space := 1.0
	for _, p := range pairs {
		space *= float64(sys.Classes[p.k].TUF.NumLevels())
	}

	strategy := ls.Strategy
	if strategy == Auto {
		if space <= maxExhaustive {
			strategy = Exhaustive
		} else {
			strategy = BranchBound
		}
	}

	// Greedy — on its own or as branch-and-bound's seed — is the one
	// first-improvement search here.
	eng := ls.open(in, ls.Name(), ls.PerServer, strategy == Greedy || strategy == BranchBound)
	defer eng.close()
	// Capture solve: every strategy starts from the all-tightest
	// (all-zeros) assignment — exhaustive enumerates it first, greedy
	// climbs from it, branch-and-bound seeds with greedy — so evaluating
	// it here runs the hot chain and exports the next slot's seed basis
	// while the result lands in the memo cache for the strategy to reuse.
	if _, err := eng.prologue(func() (assignment, error) {
		return evaluate(eng, pairs, make([]int, len(pairs)), nil)
	}); err != nil {
		return nil, err
	}
	var best assignment
	var err error
	switch strategy {
	case Exhaustive:
		best, err = exhaustive(eng, pairs)
	case Greedy:
		best, err = greedy(eng, pairs)
	case BranchBound:
		best, err = branchBound(eng, pairs)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", ls.Strategy)
	}
	if err != nil {
		return nil, err
	}
	if best.rates == nil {
		// Nothing profitable anywhere: empty plan.
		plan := NewPlan(sys)
		return plan, nil
	}
	plan, err := planFromRates(in, best.comms, best.rates)
	if err != nil {
		return nil, err
	}
	plan.Objective = planObjective(in, plan)
	return plan, nil
}

// assignment is one evaluated level commitment.
type assignment struct {
	levels []int // level per pair index
	comms  []commodity
	rates  [][]float64
	obj    float64
	px     *prices // the LP's shadow prices and basis, on a priced engine
}

// evaluate builds the one-level-per-pair commodity set and solves its LP,
// seeded from the basis of from, the incumbent it neighbours (nil: the
// slot's frozen seed). Unprofitable or reservation-overloaded pairs are
// excluded (equivalent to the LP routing nothing there).
func evaluate(eng *engine, pairs []pair, levels []int, from *prices) (assignment, error) {
	in := eng.in
	comms := make([]commodity, 0, len(pairs))
	for pi, p := range pairs {
		if c := levelCommodity(in, p, levels[pi]); c.bestCoef > 0 {
			comms = append(comms, c)
		}
	}
	// Canonical order before eviction and solving: distinct level
	// vectors that map to the same filtered commodity set share one
	// cache entry.
	sortCommodities(comms)
	comms = capReservations(in, comms)
	if len(comms) == 0 {
		return assignment{levels: append([]int(nil), levels...)}, nil
	}
	sol, err := eng.solve(comms, nil, from)
	if err == lp.ErrInfeasible {
		return assignment{levels: append([]int(nil), levels...), obj: math.Inf(-1)}, nil
	}
	if err != nil {
		return assignment{}, err
	}
	return assignment{levels: append([]int(nil), levels...), comms: comms, rates: sol.rates, obj: sol.obj, px: sol.px}, nil
}

// levelCommodity is the commodity pair p enters the LP as when committed
// to level q — if its best route earns anything: bestCoef ≤ 0 means
// evaluate leaves the pair out.
func levelCommodity(in *Input, p pair, q int) commodity {
	lev := in.Sys.Classes[p.k].TUF.Level(q)
	return commodity{k: p.k, q: q, l: p.l, utility: lev.Utility, deadline: lev.Deadline, bestCoef: bestRoute(in, p.k, p.l, lev.Utility)}
}

// exhaustive enumerates the mixed-radix level space in odometer order;
// the winner is the first assignment to reach the maximum.
func exhaustive(eng *engine, pairs []pair) (assignment, error) {
	sys := eng.in.Sys
	levels := make([]int, len(pairs))
	best := assignment{obj: math.Inf(-1)}
	for {
		a, err := evaluate(eng, pairs, levels, nil)
		if err != nil {
			return assignment{}, err
		}
		if a.obj > best.obj || best.rates == nil && a.rates != nil {
			best = a
		}
		// Odometer increment over the mixed-radix level space.
		i := 0
		for ; i < len(pairs); i++ {
			levels[i]++
			if levels[i] < sys.Classes[pairs[i].k].TUF.NumLevels() {
				break
			}
			levels[i] = 0
		}
		if i == len(pairs) {
			return best, nil
		}
	}
}

// greedy hill-climbs over single-pair level moves, first improvement. A
// move is the pair's current commodity out and its commodity at the new
// level in, either only if profitable; one the incumbent's shadow prices
// bound at no improvement is rejected before anything is built (see
// prices.bound); the others are solved, seeded from the incumbent's basis,
// in move order, and a pass goes on from the move it accepted.
func greedy(eng *engine, pairs []pair) (assignment, error) {
	in := eng.in
	sys := in.Sys
	levels := make([]int, len(pairs))
	best, err := evaluate(eng, pairs, levels, nil)
	if err != nil {
		return assignment{}, err
	}
	type move struct{ pi, q int } // pair pi to level q
	nMoves := 0
	for _, p := range pairs {
		nMoves += sys.Classes[p.k].TUF.NumLevels()
	}
	moves := make([]move, 0, nMoves)
	pairAt := make([]int, sys.K()*sys.L()) // (k, l)'s pair
	for pi, p := range pairs {
		pairAt[p.k*sys.L()+p.l] = pi
		for q := 0; q < sys.Classes[p.k].TUF.NumLevels(); q++ {
			moves = append(moves, move{pi, q})
		}
	}
	// What the bound reads of the incumbent, rewritten by each accept:
	// at[pi] is the position of pair pi's commodity in best.comms (-1: it
	// has none) and reserved[l] center l's zero-load reservations. The
	// bound speaks of the incumbent's set with one commodity out and one
	// in, which is what evaluate would solve only where capReservations
	// evicts nothing — not from the incumbent (whole), not after the move.
	at := make([]int, len(pairs))
	reserved := make([]float64, sys.L())
	whole := false
	place := func() {
		clear(reserved)
		for pi := range at {
			at[pi] = -1
		}
		for ci, c := range best.comms {
			reserved[c.l] += reservation(sys, c)
			at[pairAt[c.k*sys.L()+c.l]] = ci
		}
		admitted := 0
		for pi, p := range pairs {
			if levelCommodity(in, p, levels[pi]).bestCoef > 0 {
				admitted++
			}
		}
		whole = admitted == len(best.comms)
	}
	place()
	for {
		improved := false
		for _, mv := range moves {
			if mv.q == levels[mv.pi] {
				continue // no-op move
			}
			if whole {
				enter, out := levelCommodity(in, pairs[mv.pi], mv.q), at[mv.pi]
				after := reserved[enter.l]
				if out >= 0 {
					after -= reservation(sys, best.comms[out])
				}
				add := &enter
				if enter.bestCoef > 0 {
					after += reservation(sys, enter)
				} else {
					add = nil
				}
				if after <= reserveMargin-reserveSlack && eng.bounded(&best, out, add) {
					continue
				}
			}
			trial := append([]int(nil), levels...)
			trial[mv.pi] = mv.q
			a, err := evaluate(eng, pairs, trial, best.px)
			if err != nil {
				return assignment{}, err
			}
			if a.obj <= best.obj+improveTol {
				continue
			}
			best, improved = a, true
			levels[mv.pi] = mv.q
			place()
		}
		if !improved {
			return best, nil
		}
	}
}

// branchBound explores assignments depth first; the bound at a partial
// node relaxes every unassigned pair to its best utility with its loosest
// deadline, which can only overestimate the achievable profit. Pruning
// keeps a margin — a subtree is cut only when its relaxation bound is
// strictly below the incumbent minus improveTol — so no assignment tied with the
// optimum is ever pruned. Among ties the first leaf in DFS order wins, and
// the greedy seed wins all of them.
func branchBound(eng *engine, pairs []pair) (assignment, error) {
	// Seed the incumbent with the greedy solution so pruning bites early.
	best, err := greedy(eng, pairs)
	if err != nil {
		return assignment{}, err
	}
	// The tree compares leaves and relaxations; it searches from none, so
	// from here no solve keeps prices or a basis.
	eng.priced = false
	sys := eng.in.Sys
	levels := make([]int, len(pairs))
	var rec func(depth int) error
	rec = func(depth int) error {
		if depth == len(pairs) {
			a, err := evaluate(eng, pairs, levels, nil)
			if err == nil && a.obj > best.obj {
				best = a
			}
			return err
		}
		ub, err := upperBound(eng, pairs, levels, depth)
		if err != nil {
			return err
		}
		// Margin pruning: only cut subtrees strictly dominated by the
		// incumbent; an infeasible relaxation proves every leaf below
		// is infeasible too.
		if ub < best.obj-improveTol || math.IsInf(ub, -1) {
			return nil
		}
		for q := 0; q < sys.Classes[pairs[depth].k].TUF.NumLevels(); q++ {
			levels[depth] = q
			if err := rec(depth + 1); err != nil {
				return err
			}
		}
		levels[depth] = 0
		return nil
	}
	if err := rec(0); err != nil {
		return assignment{}, err
	}
	return best, nil
}

// upperBound solves the relaxed LP where pairs below depth keep their
// assigned level and pairs at or beyond depth get max utility with the
// loosest deadline.
func upperBound(eng *engine, pairs []pair, levels []int, depth int) (float64, error) {
	in := eng.in
	sys := in.Sys
	var comms []commodity
	for pi, p := range pairs {
		cls := sys.Classes[p.k].TUF
		var u, d float64
		var q int
		if pi < depth {
			lev := cls.Level(levels[pi])
			u, d, q = lev.Utility, lev.Deadline, levels[pi]
		} else {
			// Relaxed pairs combine max utility with the loosest deadline —
			// a combination no real level has — and carry the NumLevels
			// sentinel so the memo cache, whose key identifies a commodity
			// by (k, q, l), can never conflate a relaxation with the real
			// level-0 solve of the same pair.
			u, d, q = cls.MaxUtility(), cls.Deadline(), cls.NumLevels()
		}
		bestC := bestRoute(in, p.k, p.l, u)
		if bestC <= 0 {
			continue
		}
		comms = append(comms, commodity{k: p.k, q: q, l: p.l, utility: u, deadline: d, bestCoef: bestC})
	}
	sortCommodities(comms)
	comms = capReservations(in, comms)
	if len(comms) == 0 {
		return 0, nil
	}
	sol, err := eng.solve(comms, nil, nil)
	if err == lp.ErrInfeasible {
		return math.Inf(-1), nil
	}
	if err != nil {
		return 0, err
	}
	return sol.obj, nil
}
