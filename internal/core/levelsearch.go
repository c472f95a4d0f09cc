package core

import (
	"fmt"
	"math"
	"slices"

	"profitlb/internal/datacenter"
	"profitlb/internal/linalg"
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
// A pair may also be off: it serves nothing and reserves nothing, the
// choice the program leaves a pair whose reservation a richer pair needs.
// Exhaustive and branch-and-bound walk off beside the levels; Greedy's
// climb moves between levels only.
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

// choices is how many values a pair's entry in a level vector takes: its
// levels 0..NumLevels-1 and off, the index NumLevels. Off is never a
// commodity's q, so it cannot meet branch-and-bound's relaxation sentinel,
// which is a commodity's q and never a level vector's entry.
func choices(sys *datacenter.System, p pair) int { return sys.Classes[p.k].TUF.NumLevels() + 1 }

func allPairs(sys *datacenter.System) []pair {
	return appendPairs(make([]pair, 0, sys.K()*sys.L()), sys)
}

// appendPairs appends sys's pairs, k-major, to pairs.
func appendPairs(pairs []pair, sys *datacenter.System) []pair {
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

	sc := &ls.scratch
	sc.pairs = appendPairs(sc.pairs[:0], sys)
	pairs := sc.pairs
	space := 1.0 // the walked space: each pair's levels and off
	for _, p := range pairs {
		space *= float64(choices(sys, p))
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
	// (all-zeros) assignment — the first leaf of exhaustive's and
	// branch-and-bound's walks, the start of greedy's climb — so evaluating
	// it here runs the hot chain, on the LP of every admissible level,
	// which the next slot re-solves, and hands the strategy its answer.
	eng.admit(nil)
	first, err := eng.prologue(capture, func() (assignment, error) {
		levels := eng.zeroLevels(len(pairs))
		kept, _ := eng.pick(pairs, levels)
		return eng.evaluate(levels, kept, nil, noCutoff)
	})
	if err != nil {
		return nil, err
	}
	var best assignment
	switch strategy {
	case Exhaustive:
		best, err = exhaustive(eng, pairs, first)
	case Greedy:
		best, err = climb(eng, pairs, first)
	case BranchBound:
		best, err = branchBound(eng, pairs, first)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", ls.Strategy)
	}
	if err != nil {
		return nil, err
	}
	if best.rates == nil {
		// Nothing profitable anywhere: the empty plan.
		plan := reuse(eng.scratch.plan, sys)
		eng.scratch.plan = nil
		return plan, nil
	}
	return eng.planOf(best)
}

// assignment is one evaluated level commitment.
type assignment struct {
	levels []int // level per pair index, NumLevels for off
	comms  []commodity
	rates  [][]float64
	obj    float64
	px     *prices // the LP's shadow prices and basis, on a priced engine
}

// pick builds, in the planner's held lists, the set levels stands for:
// each pair whose level enters (see entering), in canonical order, less
// capReservations' evictions, which evicted reports.
func (e *engine) pick(pairs []pair, levels []int) (kept []commodity, evicted bool) {
	sc := e.scratch
	sc.pick = sc.pick[:0]
	for pi, p := range pairs {
		if c, ok := e.entering(p, levels[pi]); ok {
			sc.pick = append(sc.pick, c)
		}
	}
	sortCommodities(sc.pick)
	sc.kept = sc.capReservations(e.in, sc.pick, sc.kept[:0])
	return sc.kept, len(sc.kept) < len(sc.pick)
}

// evaluate solves a copy of kept, the set levels stands for (see pick), as
// a move from from, the incumbent it neighbours (nil: none), under cutoff
// (see engine.solve). An empty set is no LP. A held request copies
// into the chain's own storage (see heldOut), a move's into new slices a
// search may keep.
func (e *engine) evaluate(levels []int, kept []commodity, from *prices, cutoff float64) (assignment, error) {
	var a assignment
	if out := e.heldOut(); out != nil {
		out.levels, out.comms = append(out.levels[:0], levels...), append(out.comms[:0], kept...)
		a.levels, a.comms = out.levels, out.comms
	} else {
		a.levels, a.comms = slices.Clone(levels), slices.Clone(kept)
	}
	if len(kept) == 0 {
		a.comms = nil
		return a, nil
	}
	sol, err := e.solve(a.comms, nil, from, cutoff)
	if err == lp.ErrInfeasible {
		return assignment{levels: a.levels, obj: math.Inf(-1)}, nil
	}
	a.rates, a.obj, a.px = sol.rates, sol.obj, sol.px
	return a, err
}

// levelCommodity is the commodity pair p enters the LP as when committed
// to level q. The best route is read off the call's route pass: the greedy
// asks again for every move and every accept.
func (e *engine) levelCommodity(p pair, q int) commodity {
	lev := e.in.Sys.Classes[p.k].TUF.Level(q)
	best := e.scratch.routes.best(p.k, p.l, lev.Utility)
	return commodity{k: p.k, q: q, l: p.l, utility: lev.Utility, deadline: lev.Deadline, bestCoef: best}
}

// entering is pair p's commodity at level q, and whether it enters the
// pair's set: q is a level, not off, that earns something and whose
// reservation fits a server. Every other choice leaves the pair out, the
// same set whichever it is.
func (e *engine) entering(p pair, q int) (c commodity, ok bool) {
	if q < e.in.Sys.Classes[p.k].TUF.NumLevels() { // not off
		c = e.levelCommodity(p, q)
		ok = c.bestCoef > 0 && reservation(e.in.Sys, c) <= reserveMargin
	}
	return c, ok
}

// values lists each pair's entries in the exhaustive and branch-and-bound
// walks: its levels that enter, and out once, at its first choice that
// does not. Each vector of them is a set of its own, reached at its first
// vector in the odometer order of every choice.
func (e *engine) values(pairs []pair) [][]int {
	vals := make([][]int, len(pairs))
	for pi, p := range pairs {
		out := false
		for q := 0; q < choices(e.in.Sys, p); q++ {
			if _, in := e.entering(p, q); in || !out {
				vals[pi], out = append(vals[pi], q), out || !in
			}
		}
	}
	return vals
}

// exhaustive walks the vectors of the pairs' values (see values) in
// odometer order; the first assignment to reach the maximum wins. The
// capture, first, is the first leaf, and its set is skipped where it comes
// round; so is a vector capReservations would evict from, whose kept set
// is a vector of its own.
func exhaustive(eng *engine, pairs []pair, first assignment) (assignment, error) {
	vals := eng.values(pairs)
	at, levels := make([]int, len(pairs)), make([]int, len(pairs))
	best, captured := first, false
	for {
		if kept, evicted := eng.pick(pairs, levels); !evicted {
			if !captured && sameSet(kept, first.comms) {
				captured = true
			} else {
				a, err := eng.evaluate(levels, kept, nil, noCutoff)
				if err != nil {
					return assignment{}, err
				}
				if a.obj > best.obj || best.rates == nil && a.rates != nil {
					best = a
				}
			}
		}
		// Odometer increment over the mixed-radix space of values.
		i := 0
		for ; i < len(pairs); i++ {
			if at[i]++; at[i] < len(vals[i]) {
				levels[i] = vals[i][at[i]]
				break
			}
			at[i], levels[i] = 0, vals[i][0]
		}
		if i == len(pairs) {
			return best, nil
		}
	}
}

// climb hill-climbs from start over single-pair level moves, first
// improvement, circular as toggleSearch is. A move is the pair's current
// commodity out and its commodity at the new level in, if it earns
// anything; of a pair's moves to levels that do not enter, one set, only
// the first off its own level is asked, and a move whose kept set is the
// incumbent's (capReservations evicting the pair it moved) is not asked
// at all (DESIGN §7.3). A move the incumbent's shadow
// prices bound at no improvement is rejected before anything is built
// (see prices.bound); the others are solved from the incumbent's kernel
// under its cutoff, in move order, and a pass goes on from the move it
// accepted.
func climb(eng *engine, pairs []pair, start assignment) (assignment, error) {
	sys := eng.in.Sys
	cs := &eng.scratch.climb
	cs.levels = append(cs.levels[:0], start.levels...)
	best, levels := start, cs.levels
	moves := cs.moves[:0]
	cs.pairAt = linalg.Resized(cs.pairAt, sys.K()*sys.L())
	pairAt := cs.pairAt // (k, l)'s pair
	for pi, p := range pairs {
		pairAt[p.k*sys.L()+p.l] = pi
		for q := 0; q < sys.Classes[p.k].TUF.NumLevels(); q++ {
			moves = append(moves, levelMove{pi, q})
		}
	}
	// asked reports whether pair pi has a level below q but its own that
	// does not enter, whose move asked the set of a move to q, out.
	asked := func(pi, q int) bool {
		for o := 0; o < q; o++ {
			if _, in := eng.entering(pairs[pi], o); o != levels[pi] && !in {
				return true
			}
		}
		return false
	}
	// What the bound reads of the incumbent, rewritten by each accept:
	// at[pi] is the position of pair pi's commodity in best.comms (-1: it
	// has none) and reserved[l] center l's zero-load reservations. The
	// bound speaks of the incumbent's set with one commodity out and one
	// in, which is what evaluate would solve only where capReservations
	// evicts nothing — not from the incumbent (whole), not after the move.
	cs.moves = moves
	cs.at, cs.reserved = linalg.Resized(cs.at, len(pairs)), linalg.Resized(cs.reserved, sys.L())
	at, reserved := cs.at, cs.reserved
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
			if eng.levelCommodity(p, levels[pi]).bestCoef > 0 {
				admitted++
			}
		}
		whole = admitted == len(best.comms)
	}
	place()
	last := len(moves) // the move accepted last
	for {
		improved := false
		for mi, mv := range moves {
			if !improved && mi > last {
				return best, nil
			}
			if mv.q == levels[mv.pi] {
				continue // no-op move
			}
			enter, in := eng.entering(pairs[mv.pi], mv.q)
			if !in && asked(mv.pi, mv.q) {
				continue
			}
			if whole {
				out := at[mv.pi]
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
			cs.trial = append(cs.trial[:0], levels...)
			trial := cs.trial
			trial[mv.pi] = mv.q
			kept, _ := eng.pick(pairs, trial)
			if len(kept) > 0 && sameSet(kept, best.comms) {
				continue // the incumbent's own set: its answer is best's
			}
			a, err := eng.evaluate(trial, kept, best.px, cutoffOf(best.obj))
			if err != nil {
				return assignment{}, err
			}
			if a.obj <= best.obj+improveTol {
				continue
			}
			best, improved, last = a, true, mi
			levels[mv.pi] = mv.q
			place()
		}
		if !improved {
			return best, nil
		}
	}
}

// branchBound explores the pairs' values (see values) depth first from
// the incumbent greedy climbs to from first, the capture, whose set it
// skips where a leaf comes round to it. The bound at a partial node
// relaxes every unassigned pair to its best utility with no deadline,
// which can only overestimate the achievable profit (a leaf may leave the
// pair out and reserve nothing). A prefix whose reservations overflow a
// center is pruned, each kept set below it being a leaf of its own, and a
// pair whose only value is out is neither branched on nor bounded. A
// subtree is cut only when its bound is strictly below the incumbent
// minus improveTol, so no assignment tied with the optimum is pruned:
// among ties the greedy seed wins, then the first leaf in DFS order.
func branchBound(eng *engine, pairs []pair, first assignment) (assignment, error) {
	// Seed the incumbent with the greedy solution so pruning bites early.
	best, err := climb(eng, pairs, first)
	if err != nil {
		return assignment{}, err
	}
	// The tree compares leaves and relaxations; it searches from none, so
	// from here no solve keeps prices or a basis.
	eng.priced = false
	sys := eng.in.Sys
	vals := eng.values(pairs)
	levels := make([]int, len(pairs))
	reserved := make([]float64, sys.L()) // the prefix's reservations by center
	captured := false
	var rec func(depth int) error
	rec = func(depth int) error {
		for ; depth < len(pairs) && len(vals[depth]) == 1; depth++ {
			levels[depth] = vals[depth][0]
		}
		if depth == len(pairs) {
			kept, _ := eng.pick(pairs, levels)
			if !captured && sameSet(kept, first.comms) {
				captured = true
				return nil
			}
			a, err := eng.evaluate(levels, kept, nil, noCutoff)
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
		p := pairs[depth]
		prior := reserved[p.l]
		for _, q := range vals[depth] {
			reserved[p.l] = prior
			if c, ok := eng.entering(p, q); ok {
				if reserved[p.l] += reservation(sys, c); reserved[p.l] > reserveMargin {
					continue
				}
			}
			levels[depth] = q
			if err := rec(depth + 1); err != nil {
				return err
			}
		}
		reserved[p.l] = prior
		return nil
	}
	if err := rec(0); err != nil {
		return assignment{}, err
	}
	return best, nil
}

// Bound returns the slot's level-relaxed upper bound z̄, branch-and-bound's
// root relaxation: every (type, center) pair at its best utility with no
// deadline. No plan on in beats it, the paper's program's optimum included.
// It solves on a fresh engine, which no planner's warm chain sees.
func Bound(in *Input) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	var o EngineOptions
	eng := o.open(in, "bound", false, false)
	defer eng.close()
	return upperBound(eng, allPairs(in.Sys), nil, 0)
}

// upperBound solves the relaxed LP where pairs below depth keep their
// assigned level (out: left out, as a leaf leaves it) and pairs at or
// beyond depth get max utility with no deadline, so they reserve no share.
// The assigned pairs' reservations fit (branchBound prunes a prefix that
// overflows), so nothing is evicted.
func upperBound(eng *engine, pairs []pair, levels []int, depth int) (float64, error) {
	sys, sc := eng.in.Sys, eng.scratch
	sc.pick = sc.pick[:0]
	for pi, p := range pairs {
		if pi < depth {
			if c, ok := eng.entering(p, levels[pi]); ok {
				sc.pick = append(sc.pick, c)
			}
			continue
		}
		// Relaxed pairs combine max utility with no deadline, which no
		// real level has, under the NumLevels sentinel q: the LP names
		// them apart from the pair's real levels (dispatchNames counts it).
		cls := sys.Classes[p.k].TUF
		u := cls.MaxUtility()
		if bestC := sc.routes.best(p.k, p.l, u); bestC > 0 {
			sc.pick = append(sc.pick, commodity{k: p.k, q: cls.NumLevels(), l: p.l, utility: u, deadline: math.Inf(1), bestCoef: bestC})
		}
	}
	if len(sc.pick) == 0 {
		return 0, nil
	}
	sortCommodities(sc.pick)
	sol, err := eng.solve(sc.pick, nil, nil, noCutoff)
	if err == lp.ErrInfeasible {
		return math.Inf(-1), nil
	}
	if err != nil {
		return 0, err
	}
	return sol.obj, nil
}
