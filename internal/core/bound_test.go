package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"profitlb/internal/lp"
	"profitlb/internal/race"
	"profitlb/internal/tuf"
)

// boundCase is one input of the bound's test battery.
type boundCase struct {
	name   string
	in     *Input
	floors []float64
}

// boundBattery spans what the bound's validity could depend on: seeds
// (prices and arrivals jittered on the synthetic topology, plus random
// heterogeneous systems) × load ×1 (demand-limited) to ×8 (every center
// full) × one- and two-level TUFs × completion floors off and on.
func boundBattery() []boundCase {
	var out []boundCase
	add := func(name string, in *Input) {
		out = append(out, boundCase{name, in, nil})
		floors := make([]float64, in.Sys.K())
		floors[0], floors[len(floors)-1] = 0.3, 0.15
		out = append(out, boundCase{name + "/floors", in, floors})
		// A floor that binds: the last class loses money on every route, so
		// its floor row is priced and its commodities serve at a loss.
		sys := *in.Sys
		sys.Classes = slices.Clone(sys.Classes)
		sys.Classes[len(sys.Classes)-1].TransferCostPerMile = 1
		out = append(out, boundCase{name + "/floors-at-a-loss", &Input{Sys: &sys, Arrivals: in.Arrivals, Prices: in.Prices}, floors})
	}
	for _, seed := range []int64{1, 2} {
		for _, load := range []float64{1, 3, 5, 8} {
			for _, levels := range []int{1, 2} {
				rng := rand.New(rand.NewSource(seed))
				in := synthInput(4, 5, 2)
				for s := range in.Arrivals {
					for k := range in.Arrivals[s] {
						in.Arrivals[s][k] *= load * (0.7 + 0.6*rng.Float64())
					}
				}
				for l := range in.Prices {
					in.Prices[l] *= 0.8 + 0.4*rng.Float64()
				}
				if levels == 1 {
					for k := range in.Sys.Classes {
						c := &in.Sys.Classes[k]
						c.TUF = tuf.MustNew(c.TUF.Levels()[:1])
					}
				}
				add(fmt.Sprintf("synth-%d/x%v/%d-level", seed, load, levels), in)
			}
		}
	}
	for _, seed := range []int64{5, 11, 17} {
		for _, load := range []float64{1, 3, 8} {
			_, in := randomSystem(rand.New(rand.NewSource(seed)))
			scaleArrivals(in, load)
			add(fmt.Sprintf("random-%d/x%v", seed, load), in)
		}
	}
	return out
}

// boundTol is the slack the theorem is held to: the solver's optimality
// tolerance at the LP's rhs scale, lp's own audit tolerance (duals that
// are feasible to 1e-9 a unit bound an optimum to that times the rhs).
func boundTol(in *Input) float64 {
	scale := 1.0
	for s := range in.Arrivals {
		for _, a := range in.Arrivals[s] {
			scale = max(scale, a)
		}
	}
	for _, dc := range in.Sys.Centers {
		for _, c := range in.Sys.Classes {
			scale = max(scale, float64(dc.Servers)/c.TUF.Level(0).Deadline)
		}
	}
	return 1e-9 * 100 * scale
}

// theorem checks prices.bound against the LP it speaks of: the incumbent's
// set with the commodity at out removed and add admitted, built and solved
// explicitly. It counts the moves it could and could not bound.
type theorem struct {
	t                  *testing.T
	eng                *engine
	floors             []float64
	defined, undefined int
	// lagrangian counts the defined moves whose entering commodity's routes
	// do not price out, bounded by prices.addBound.
	lagrangian int
}

func (th *theorem) visit(inc *assignment, out int, add *commodity) {
	bound, ok := inc.px.bound(th.eng.in, inc.obj, out, add)
	if !ok {
		th.undefined++
		return
	}
	th.defined++
	if add != nil {
		if _, in := inc.px.entry(th.eng.in, add); !in {
			th.lagrangian++
		}
	}
	set := slices.Clone(inc.comms)
	if out >= 0 {
		set = slices.Delete(set, out, out+1)
	}
	if add != nil {
		set = append(set, *add)
	}
	sortCommodities(set)
	sol, err := th.eng.solve(set, th.floors, nil, noCutoff)
	if errors.Is(err, lp.ErrInfeasible) {
		return // −∞ is under any bound
	}
	if err != nil {
		th.t.Fatal(err)
	}
	if sol.obj > bound+boundTol(th.eng.in) {
		th.t.Errorf("incumbent %.17g, out %d, add %+v: the neighbour's LP reaches %.17g, over its bound %.17g", inc.obj, out, add, sol.obj, bound)
	}
}

// refToggle is toggleSearch as it stood before the bound: every neighbour
// built, capped and solved fresh. visit sees each
// move first.
func refToggle(t *testing.T, o *Optimized, eng *engine, full []commodity, start assignment, visit func(*assignment, int, *commodity)) assignment {
	best := start
	for iter := 0; iter < 60; iter++ {
		improved := false
		for i := range full {
			out := slices.IndexFunc(best.comms, func(c commodity) bool { return compareCommodities(c, full[i]) == 0 })
			var add *commodity
			trial := slices.Clone(best.comms)
			if out >= 0 {
				trial = slices.Delete(trial, out, out+1)
			} else {
				add = &full[i]
				trial = append(trial, full[i])
			}
			visit(&best, out, add)
			if len(capReservations(eng.in, trial)) != len(trial) {
				continue
			}
			a, err := o.solveSubset(eng, trial, nil, noCutoff)
			if err != nil {
				t.Fatal(err)
			}
			if a.obj > best.obj+improveTol {
				best, improved = a, true
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// refGreedy is greedy as it stood before the bound, likewise.
func refGreedy(t *testing.T, eng *engine, pairs []pair, visit func(*assignment, int, *commodity)) assignment {
	in := eng.in
	sys := in.Sys
	levels := make([]int, len(pairs))
	best, err := evaluate(eng, pairs, levels, nil, noCutoff)
	if err != nil {
		t.Fatal(err)
	}
	for {
		improved := false
		for pi, p := range pairs {
			for q := 0; q < sys.Classes[p.k].TUF.NumLevels(); q++ {
				if q == levels[pi] {
					continue
				}
				out := slices.IndexFunc(best.comms, func(c commodity) bool { return c.k == p.k && c.l == p.l })
				c := eng.levelCommodity(p, q)
				var add *commodity
				if c.bestCoef > 0 {
					add = &c
				}
				visit(&best, out, add)
				trial := slices.Clone(levels)
				trial[pi] = q
				a, err := evaluate(eng, pairs, trial, nil, noCutoff)
				if err != nil {
					t.Fatal(err)
				}
				if a.obj > best.obj+improveTol {
					best, improved = a, true
					levels[pi] = q
				}
			}
		}
		if !improved {
			return best
		}
	}
}

func relErr(got, want float64) float64 {
	if got == want { // both −Inf included
		return 0
	}
	return math.Abs(got-want) / math.Max(1, math.Abs(want))
}

// TestBoundIsAnUpperBound tests the bound as the theorem it is, not by its
// effect: beside every incumbent a reference search visits — one that
// solves every neighbour and consults no bound — every move the bound is
// defined for has an explicitly solved optimum under it; and the bounded,
// incumbent-seeded production searches commit what the reference does.
func TestBoundIsAnUpperBound(t *testing.T) {
	defined, undefined, bounded := 0, 0, int64(0)
	for _, bc := range boundBattery() {
		t.Run(bc.name, func(t *testing.T) {
			in := bc.in
			ref := &Optimized{Refine: true, MinCompletion: bc.floors, EngineOptions: EngineOptions{WarmStart: true}}
			eng := ref.open(in, "reference", false, true)
			defer eng.close()
			th := &theorem{t: t, eng: eng, floors: bc.floors}
			full := admissibleCommodities(in, bc.floors)
			start, err := ref.solveSubset(eng, capReservations(in, full), nil, noCutoff)
			if err != nil {
				t.Fatal(err)
			}
			refFull := refToggle(t, ref, eng, full, start, th.visit)
			th.floors = nil // greedy plans without them
			refSeed := refGreedy(t, eng, allPairs(in.Sys), th.visit)
			th.floors = bc.floors
			reseed, err := ref.solveSubset(eng, slices.Clone(refSeed.comms), nil, noCutoff)
			if err != nil {
				t.Fatal(err)
			}
			refFromSeed := refToggle(t, ref, eng, full, reseed, th.visit)
			defined, undefined = defined+th.defined, undefined+th.undefined

			o := &Optimized{Refine: true, MinCompletion: bc.floors, EngineOptions: EngineOptions{WarmStart: true, Stats: &SearchStats{}}}
			prod := o.open(in, "production", false, true)
			start, err = o.solveSubset(prod, capReservations(in, full), nil, noCutoff)
			if err != nil {
				t.Fatal(err)
			}
			gotFull, err := o.toggleSearch(prod, full, start)
			if err != nil {
				t.Fatal(err)
			}
			gotSeed, err := greedy(prod, allPairs(in.Sys))
			if err != nil {
				t.Fatal(err)
			}
			reseed, err = o.solveSubset(prod, slices.Clone(gotSeed.comms), gotSeed.px, noCutoff)
			if err != nil {
				t.Fatal(err)
			}
			gotFromSeed, err := o.toggleSearch(prod, full, reseed)
			if err != nil {
				t.Fatal(err)
			}
			prod.close()
			bounded += o.Stats.Bounded
			for _, cmp := range []struct {
				what      string
				got, want float64
			}{
				{"toggle search from the full set", gotFull.obj, refFull.obj},
				{"greedy", gotSeed.obj, refSeed.obj},
				{"toggle search from the greedy seed", gotFromSeed.obj, refFromSeed.obj},
			} {
				if relErr(cmp.got, cmp.want) > 1e-7 {
					t.Errorf("%s commits %.17g, the reference search %.17g", cmp.what, cmp.got, cmp.want)
				}
			}
		})
	}
	t.Logf("bound defined on %d visited moves, undefined on %d; the production searches rejected %d unsolved", defined, undefined, bounded)
	if defined < 1000 || undefined == 0 || bounded < 1000 {
		t.Fatalf("battery too tame: bound defined on %d moves, undefined on %d, %d rejected", defined, undefined, bounded)
	}
}

// TestAddBoundIsAnUpperBound: beside the incumbents of
// TestBoundIsAnUpperBound's reference searches, the adds whose routes do
// not price out are bounded by the Lagrangian (prices.addBound), and
// theorem.visit holds each to its explicitly solved optimum; the battery
// must visit a hundred of them.
func TestAddBoundIsAnUpperBound(t *testing.T) {
	lagrangian := 0
	for _, bc := range boundBattery() {
		ref := &Optimized{Refine: true, MinCompletion: bc.floors, EngineOptions: EngineOptions{WarmStart: true}}
		eng := ref.open(bc.in, "reference", false, true)
		th := &theorem{t: t, eng: eng, floors: bc.floors}
		full := admissibleCommodities(bc.in, bc.floors)
		start, err := ref.solveSubset(eng, capReservations(bc.in, full), nil, noCutoff)
		if err != nil {
			t.Fatal(err)
		}
		refToggle(t, ref, eng, full, start, th.visit)
		th.floors = nil // greedy plans without them
		seed := refGreedy(t, eng, allPairs(bc.in.Sys), th.visit)
		th.floors = bc.floors
		reseed, err := ref.solveSubset(eng, slices.Clone(seed.comms), nil, noCutoff)
		if err != nil {
			t.Fatal(err)
		}
		refToggle(t, ref, eng, full, reseed, th.visit)
		eng.close()
		lagrangian += th.lagrangian
	}
	t.Logf("%d visited adds bounded by the Lagrangian", lagrangian)
	if lagrangian < 100 {
		t.Fatalf("battery too tame: %d adds bounded by the Lagrangian", lagrangian)
	}
}

// TestBoundCarriesTheFloorPrice: under a completion floor that binds — a
// class served at a loss — a route must out-earn the arrival row's price
// plus the floor row's (which is negative: the loss the floor forces), so
// the class's least lossy commodity, left out of the incumbent, is no
// move to turn down: admitting it cuts the loss.
func TestBoundCarriesTheFloorPrice(t *testing.T) {
	in := synthInput(4, 5, 2)
	const k = 3
	in.Sys.Classes[k].TransferCostPerMile = 1
	o := NewOptimized()
	o.MinCompletion = []float64{0, 0, 0, 0.2}
	eng := o.open(in, o.Name(), false, true)
	defer eng.close()
	full := capReservations(in, admissibleCommodities(in, o.MinCompletion))
	best := -1
	for i, c := range full {
		if c.k == k && (best < 0 || c.bestCoef > full[best].bestCoef) {
			best = i
		}
	}
	if best < 0 || full[best].bestCoef >= 0 {
		t.Fatalf("fixture drifted: class %d's best commodity %+v", k, full[best])
	}
	inc, err := o.solveSubset(eng, slices.Delete(slices.Clone(full), best, best+1), nil, noCutoff)
	if err != nil {
		t.Fatal(err)
	}
	all, err := o.solveSubset(eng, slices.Clone(full), nil, noCutoff)
	if err != nil {
		t.Fatal(err)
	}
	if all.obj < inc.obj+1 {
		t.Fatalf("fixture drifted: admitting %+v moves the optimum from %.17g to %.17g", full[best], inc.obj, all.obj)
	}
	th := &theorem{t: t, eng: eng, floors: o.MinCompletion}
	th.visit(&inc, -1, &full[best])
	if eng.bounded(&inc, -1, &full[best]) {
		t.Fatalf("the move from %.17g to %.17g was turned down unsolved", inc.obj, all.obj)
	}
}

// TestBoundGap: the level-relaxed bound z̄ (Bound) sits above every
// planner's committed objective on the demand- and capacity-limited refine
// fixtures, and leaves the committed plans' planner state alone: a
// planner re-plans the slot identically after a bound. The gaps are
// DESIGN §15's.
func TestBoundGap(t *testing.T) {
	for _, fx := range refineFixtures {
		t.Run(fx.name, func(t *testing.T) {
			o, in := fx.make()
			off := NewOptimized()
			off.Refine = false
			greedy := NewLevelSearch()
			greedy.Strategy = Greedy
			zs := []float64{mustPlan(t, o, in).Objective, mustPlan(t, off, in).Objective, mustPlan(t, greedy, in).Objective}
			zbar, err := Bound(in)
			if err != nil {
				t.Fatal(err)
			}
			for i, z := range zs {
				if z > zbar+1e-9*math.Abs(zbar) {
					t.Fatalf("planner %d commits %.17g above the bound %.17g", i, z, zbar)
				}
			}
			if again := mustPlan(t, o, in).Objective; again != zs[0] {
				t.Fatalf("refine re-plans at %.17g after the bound, %.17g before", again, zs[0])
			}
			t.Logf("z̄ %.10g; gap refine %.3g %%, refine off %.3g %%, greedy level search %.3g %%",
				zbar, 100*(zbar-zs[0])/zbar, 100*(zbar-zs[1])/zbar, 100*(zbar-zs[2])/zbar)
		})
	}
}

// TestUnboundedOnPurpose: the moves prices.bound declines to speak of are
// still solved, and come out as they did before there was a bound.
func TestUnboundedOnPurpose(t *testing.T) {
	_, busy := refineSlotBusy()

	// The per-server layout keeps no prices: nothing is bounded.
	t.Run("per-server", func(t *testing.T) {
		in := synthInput(3, 4, 2)
		scaleArrivals(in, 5)
		ps, agg := NewOptimized(), NewOptimized()
		ps.PerServer, ps.Stats, agg.Stats = true, &SearchStats{}, &SearchStats{}
		got, want := mustPlan(t, ps, in), mustPlan(t, agg, in)
		if ps.Stats.Bounded != 0 || ps.Stats.Solves < 10 || agg.Stats.Bounded == 0 {
			t.Fatalf("per-server %+v, aggregated %+v: want every per-server move solved", *ps.Stats, *agg.Stats)
		}
		if relErr(got.Objective, want.Objective) > 1e-7 {
			t.Fatalf("per-server plan earns %.17g, aggregated %.17g", got.Objective, want.Objective)
		}
	})

	// An entering commodity whose class has no arrival row, or whose center
	// no share row, in the incumbent is held to the Lagrangian bound with
	// those rows priced at 0 — a bound the neighbour's LP stays under —
	// and the search still re-admits the class.
	t.Run("no-row", func(t *testing.T) {
		o := NewOptimized()
		o.Stats = &SearchStats{}
		eng := o.open(busy, o.Name(), false, true)
		full := admissibleCommodities(busy, nil)
		const k, l = 2, 3
		var part []commodity
		var ofClass, atCenter *commodity
		for i, c := range capReservations(busy, full) {
			switch {
			case c.k == k:
				ofClass = &full[i]
			case c.l == l:
				atCenter = &full[i]
			default:
				part = append(part, c)
			}
		}
		inc, err := o.solveSubset(eng, part, nil, noCutoff)
		if err != nil {
			t.Fatal(err)
		}
		th := &theorem{t: t, eng: eng}
		for _, add := range []*commodity{ofClass, atCenter} {
			th.visit(&inc, -1, add)
		}
		if th.defined != 2 {
			t.Fatalf("bound defined on %d of the two moves whose rows the incumbent lacks", th.defined)
		}
		other := slices.IndexFunc(full, func(c commodity) bool { return c.k != k && c.l != l })
		if _, ok := inc.px.bound(busy, inc.obj, -1, &full[other]); !ok {
			t.Fatalf("no bound for %+v, whose rows the incumbent has", full[other])
		}
		end, err := o.toggleSearch(eng, full, inc)
		if err != nil {
			t.Fatal(err)
		}
		eng.close()
		if end.obj <= inc.obj || !slices.ContainsFunc(end.comms, func(c commodity) bool { return c.k == k }) {
			t.Fatalf("search from a set without class %d ended at %.17g (from %.17g) without re-admitting it", k, end.obj, inc.obj)
		}
	})

	// Where capReservations evicts, greedy's neighbour is not the
	// incumbent's set with one commodity swapped: solved, not bounded.
	// Here four tight reservations overflow a server and almost nothing
	// arrives, so no share row is priced and a bound taken anyway would
	// turn down every move — the ones that make room for an evicted
	// commodity included, which are worth a fifth of the profit.
	t.Run("eviction", func(t *testing.T) {
		in := synthInput(8, 4, 2)
		scaleArrivals(in, 0.03)
		for k := range in.Sys.Classes {
			c := &in.Sys.Classes[k]
			c.TUF = tuf.MustNew([]tuf.Level{{Utility: c.TUF.Level(0).Utility, Deadline: 0.0036}, {Utility: c.TUF.Level(1).Utility, Deadline: 0.006}})
		}
		pairs := allPairs(in.Sys)
		ref := (&EngineOptions{WarmStart: true}).open(in, "reference", false, true)
		start, err := evaluate(ref, pairs, make([]int, len(pairs)), nil, noCutoff)
		if err != nil {
			t.Fatal(err)
		}
		want := refGreedy(t, ref, pairs, func(*assignment, int, *commodity) {})
		ref.close()
		if want.obj < 1.2*start.obj {
			t.Fatalf("fixture drifted: the reference climbs from %.17g to %.17g only", start.obj, want.obj)
		}
		ls := NewLevelSearch()
		ls.Strategy, ls.Stats = Greedy, &SearchStats{}
		eng := ls.open(in, ls.Name(), false, true)
		got, err := greedy(eng, pairs)
		if err != nil {
			t.Fatal(err)
		}
		eng.close()
		if relErr(got.obj, want.obj) > 1e-7 {
			t.Fatalf("greedy under evictions commits %.17g after %+v, the reference %.17g", got.obj, *ls.Stats, want.obj)
		}
	})

	// An incumbent infeasible under its floors has no prices at all.
	t.Run("infeasible-floors", func(t *testing.T) {
		in := synthInput(4, 5, 2)
		scaleArrivals(in, 8)
		o := NewOptimized()
		o.MinCompletion, o.Stats = []float64{1, 1, 1, 1}, &SearchStats{}
		eng := o.open(in, o.Name(), false, true)
		full := admissibleCommodities(in, o.MinCompletion)
		start, err := o.solveSubset(eng, capReservations(in, full), nil, noCutoff)
		if err != nil || !math.IsInf(start.obj, -1) || start.px != nil {
			t.Fatalf("floors beyond the fleet's capacity: start %+v, %v", start, err)
		}
		if _, err := o.toggleSearch(eng, full, start); err != nil {
			t.Fatal(err)
		}
		eng.close()
		if o.Stats.Bounded != 0 || o.Stats.Solves+o.Stats.CacheHits < int64(len(full)) {
			t.Fatalf("stats %+v: want each of the %d moves off an infeasible incumbent solved", *o.Stats, len(full))
		}
	})
}

// TestSeededKeyKeepsIncumbentsApart: a solve of subset X made beside
// incumbent A is never served to a request for X beside incumbent B,
// whose kernel would have led elsewhere; beside A again, it is.
func TestSeededKeyKeepsIncumbentsApart(t *testing.T) {
	o, in := refineSlotBusy()
	mustPlan(t, o, in) // arm the warm state: solutions are numbered only when warm
	eng := o.open(in, o.Name(), false, true)
	defer eng.close()
	full := capReservations(in, admissibleCommodities(in, nil))
	solve := func(set []commodity, from *prices) solution {
		t.Helper()
		sol, err := eng.solve(set, nil, from, noCutoff)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	a, b, x := solve(full[1:], nil), solve(full[:len(full)-1], nil), full[1:len(full)-1]
	if a.px.seed == b.px.seed || a.px.seed == 0 || b.px.seed == 0 {
		t.Fatalf("incumbents carry seeds %d and %d", a.px.seed, b.px.seed)
	}
	underA := solve(x, a.px)
	solves, hits := eng.n.Solves, eng.n.CacheHits
	underB := solve(x, b.px)
	if eng.n.Solves != solves+1 || eng.n.CacheHits != hits {
		t.Fatal("a request beside incumbent B was served the solve made beside A")
	}
	if underA.px == underB.px || relErr(underA.obj, underB.obj) > 1e-9 {
		t.Fatalf("the two solves of one subset: %.17g and %.17g", underA.obj, underB.obj)
	}
	if again := solve(x, a.px); again.px != underA.px || eng.n.CacheHits != hits+1 {
		t.Fatal("a repeated request beside incumbent A was not a cache hit")
	}
	if alone := solve(x, nil); alone.px == underA.px || alone.px == underB.px {
		t.Fatal("a request beside no incumbent was served an incumbent-seeded solve")
	}
}

// TestBranchBoundTreeKeepsNoPrices: shadow prices and a basis are kept
// where a search reads them — the solves of branch-and-bound's greedy
// seed — and nowhere else: the leaves and relaxations its tree compares
// add entries to the memo cache, none of them priced.
func TestBranchBoundTreeKeepsNoPrices(t *testing.T) {
	in := &Input{Sys: multiLevelSystem(), Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	pairs := allPairs(in.Sys)
	entries := func(search func(*engine, []pair) (assignment, error)) (all, priced int, best assignment) {
		ls := NewLevelSearch()
		eng := ls.open(in, ls.Name(), false, true)
		defer eng.close()
		best, err := search(eng, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range eng.cache {
			all++
			if ent.px != nil {
				priced++
			}
		}
		return all, priced, best
	}
	seedAll, seedPriced, seed := entries(greedy)
	if seedPriced == 0 || seedPriced != seedAll {
		t.Fatalf("greedy priced %d of its %d solves, want all: it searches from any of them", seedPriced, seedAll)
	}
	all, priced, best := entries(branchBound)
	if priced != seedPriced || all <= seedAll {
		t.Fatalf("branch-and-bound: %d entries, %d priced; its greedy seed alone: %d, %d", all, priced, seedAll, seedPriced)
	}
	if best.obj < seed.obj {
		t.Fatalf("branch-and-bound committed %g, below its seed's %g", best.obj, seed.obj)
	}
}

// TestRefineLargeFinishes: the default planner commits a fleet-scale slot
// (20×100×3, ~2160-row LP), which before the bound it did not in ten
// minutes: a warm slot takes under 1 000 LP solves of 36 000 moves, and
// earns at least what the plan without refinement does.
func TestRefineLargeFinishes(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("two fleet-scale refine slots: seconds, minutes under the race detector")
	}
	in := synthInput(20, 100, 3)
	o, off := NewOptimized(), NewOptimized()
	o.Stats, off.Refine = &SearchStats{}, false
	base := mustPlan(t, off, in)
	zbar, err := Bound(in)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 2; slot++ {
		begin := time.Now()
		plan := mustPlan(t, o, in)
		t.Logf("slot %d: %v on %d CPUs, %+v", slot, time.Since(begin), runtime.NumCPU(), *o.Stats)
		if plan.Objective < base.Objective || plan.Objective > zbar+1e-9*zbar {
			t.Fatalf("slot %d: refine earns %.17g, the unrefined plan %.17g, the bound %.17g", slot, plan.Objective, base.Objective, zbar)
		}
		t.Logf("slot %d: gap to z̄ %.10g: refine %.3g %%, refine off %.3g %%", slot, zbar, 100*(zbar-plan.Objective)/zbar, 100*(zbar-base.Objective)/zbar)
	}
	if o.Stats.Solves > 1000 || o.Stats.Bounded < 10*o.Stats.Solves || o.Stats.WarmFallbacks != 0 {
		t.Fatalf("warm slot: %+v, want ≤ 1000 solves, the rest bounded", *o.Stats)
	}
}
