package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"profitlb/internal/lp"
	"profitlb/internal/tuf"
)

// refreshRig holds one dispatchLP across a sequence of inputs and, after
// every step, sets it against a from-scratch build of the same input.
type refreshRig struct {
	t         testing.TB
	in        *Input
	base      *Input // the undrifted prices and arrivals
	floors    []float64
	perServer bool
	names     *dispatchNames
	withhold  int // class whose commodities are kept out of the LP, -1: none
	held      dispatchLP
	lastComms []commodity
}

func newRefreshRig(t testing.TB, K, L, S int, perServer bool) *refreshRig {
	r := &refreshRig{t: t, base: synthInput(K, L, S), perServer: perServer, withhold: -1}
	r.in = r.base
	if !perServer {
		var opts EngineOptions
		r.names = opts.namesFor(r.in.Sys)
	}
	return r
}

// drift moves every price and arrival rate a few percent off its base,
// the way one slot of a chain differs from the last.
func (r *refreshRig) drift(slot int) { r.in = chainInput(r.base, slot, 1) }

// setDeadlines gives class k a two-level TUF with the given tight deadline.
func (r *refreshRig) setDeadlines(k int, tight float64) {
	u := 12 + float64(k)
	r.in.Sys.Classes[k].TUF = tuf.MustNew([]tuf.Level{{Utility: u, Deadline: tight}, {Utility: u * 0.45, Deadline: 4 * tight}})
}

// check builds the step's LP into the held dispatchLP and from scratch,
// and requires the two equal in every name, term, sense, right-hand side,
// objective coefficient and handle — and byte-equal when exported. It
// reports whether the held LP's structure was built again and whether the
// commodity set is the step before's.
func (r *refreshRig) check(step string) (rebuilt, sameSet bool) {
	r.t.Helper()
	comms := capReservations(r.in, admissibleCommodities(r.in, r.floors))
	kept := comms[:0]
	for _, c := range comms {
		if c.k != r.withhold {
			kept = append(kept, c)
		}
	}
	comms = kept
	sortCommodities(comms)
	if len(comms) == 0 {
		r.t.Skip("nothing admitted")
	}
	r.held.build(r.in, comms, r.floors, r.perServer, r.names)
	fresh := buildDispatchLP(r.in, append([]commodity(nil), comms...), r.floors, r.perServer, r.names)
	requireSameLP(r.t, step, &r.held, fresh)
	sameSet = len(comms) == len(r.lastComms)
	for i := 0; sameSet && i < len(comms); i++ {
		sameSet = compareCommodities(comms[i], r.lastComms[i]) == 0
	}
	r.lastComms = append(r.lastComms[:0], comms...)
	return r.held.rebuilt, sameSet
}

func requireSameLP(t testing.TB, step string, got, want *dispatchLP) {
	t.Helper()
	requireSameModel(t, step, got.model, want.model)
	if !reflect.DeepEqual(got.xVar, want.xVar) || !reflect.DeepEqual(got.fVar, want.fVar) || !reflect.DeepEqual(got.arrRow, want.arrRow) ||
		!reflect.DeepEqual(got.shareRow, want.shareRow) || !(len(got.floorRow) == 0 && len(want.floorRow) == 0 || reflect.DeepEqual(got.floorRow, want.floorRow)) {
		t.Fatalf("%s: handles differ", step)
	}
}

// requireSameModel requires a held model equal to a fresh build's in every
// name, objective coefficient, term, sense and right-hand side, and
// byte-equal when exported.
func requireSameModel(t testing.TB, step string, a, b *lp.Model) {
	t.Helper()
	if a.NumVariables() != b.NumVariables() || a.NumConstraints() != b.NumConstraints() || a.IsMinimize() != b.IsMinimize() {
		t.Fatalf("%s: held LP is %d×%d, a fresh build %d×%d", step, a.NumConstraints(), a.NumVariables(), b.NumConstraints(), b.NumVariables())
	}
	for v := 0; v < a.NumVariables(); v++ {
		if a.VariableName(v) != b.VariableName(v) {
			t.Fatalf("%s: column %d is %s held, %s fresh", step, v, a.VariableName(v), b.VariableName(v))
		}
	}
	if ao, bo := a.ObjectiveCoefs(), b.ObjectiveCoefs(); !reflect.DeepEqual(ao, bo) {
		t.Fatalf("%s: objectives differ", step)
	}
	for c := 0; c < a.NumConstraints(); c++ {
		at, as, ar := a.RowSpec(c)
		bt, bs, br := b.RowSpec(c)
		if a.RowName(c) != b.RowName(c) || as != bs || math.Float64bits(ar) != math.Float64bits(br) || !reflect.DeepEqual(at, bt) {
			t.Fatalf("%s: row %d held %s %v %v %v, fresh %s %v %v %v", step, c, a.RowName(c), at, as, ar, b.RowName(c), bt, bs, br)
		}
	}
	var ab, bb bytes.Buffer
	if err := a.WriteLPFormat(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteLPFormat(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatalf("%s: LP exports differ", step)
	}
}

// TestRefreshEqualsRebuild walks one held dispatchLP through everything a
// slot can change — numbers only, then each input that reaches a
// coefficient, a row or a column — and requires it equal to a from-scratch
// build after every step, with the structure rebuilt on exactly the steps
// that changed it.
func TestRefreshEqualsRebuild(t *testing.T) {
	for _, perServer := range []bool{false, true} {
		t.Run(fmt.Sprintf("perServer=%v", perServer), func(t *testing.T) {
			r := newRefreshRig(t, 4, 5, 3, perServer)
			sys := r.in.Sys
			first := r.in.Sys.Centers[0].ServiceRate
			// Class 0 is served at center 0 (see synthInput: (l·7+k) even).
			steps := []struct {
				name    string
				do      func()
				rebuilt bool
			}{
				{"first build", func() {}, true},
				{"prices and arrivals drift", func() { r.drift(1) }, false},
				{"and again", func() { r.drift(2) }, false},
				{"a center loses servers", func() { sys.Centers[0].Servers = 2 }, true},
				{"drift, degraded", func() { r.drift(3) }, false},
				{"the servers come back", func() { sys.Centers[0].Servers = 4 }, true},
				{"a capacity changes", func() { sys.Centers[0].Capacity = 1.25 }, true},
				{"a service rate changes", func() { first[0] *= 0.9 }, true},
				{"a service rate nothing uses changes", func() { first[1] *= 0.9 }, false},
				{"a center prices itself out", func() { r.base.Prices[0] *= 1e5; r.drift(3) }, true},
				{"drift without it", func() { r.drift(4) }, false},
				{"and back in", func() { r.base.Prices[0] /= 1e5; r.drift(4) }, true},
				{"a deadline changes", func() { r.setDeadlines(0, 0.025) }, true},
				{"a utility changes", func() {
					sys.Classes[0].TUF = tuf.MustNew([]tuf.Level{{Utility: 13, Deadline: 0.025}, {Utility: 6, Deadline: 0.1}})
				}, false},
				{"floors on", func() { r.floors = []float64{0.2, 0, 0.1} }, true},
				{"another fraction", func() { r.floors[0] = 0.35; r.drift(5) }, false},
				{"a floor off", func() { r.floors[2] = 0 }, true},
				{"a floored class with no commodity and nothing offered", func() {
					r.withhold = 0
					for s := range r.base.Arrivals {
						r.base.Arrivals[s][0] = 0
					}
					r.drift(5)
				}, true},
				{"drift, nothing owed", func() { r.drift(6) }, false},
				{"the class is offered load it cannot be served", func() { r.base.Arrivals[1][0] = 300; r.drift(6) }, true},
				{"drift, still owed", func() { r.drift(7) }, false},
				{"nothing offered again", func() { r.base.Arrivals[1][0] = 0; r.drift(7) }, true},
				{"floors off", func() { r.floors, r.withhold = nil, -1 }, true},
				{"drift to the end", func() { r.drift(8) }, false},
			}
			for _, st := range steps {
				st.do()
				if rebuilt, _ := r.check(st.name); rebuilt != st.rebuilt {
					t.Fatalf("%s: structure rebuilt: %v, want %v", st.name, rebuilt, st.rebuilt)
				}
			}
		})
	}
}

// FuzzRefresh drives TestRefreshEqualsRebuild's check from fuzz bytes:
// each pair picks what changes next and by how much. A step that moves
// only prices, arrivals or a floor's fraction over an unchanged commodity
// set must refresh; every step must leave the held LP equal to a fresh one.
func FuzzRefresh(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 0, 3, 2, 1, 3, 7, 4, 2, 0, 9, 5, 1, 6, 3, 0, 4, 7, 0, 8, 2, 0, 5, 9, 0})
	f.Add([]byte{5, 3, 5, 3, 0, 1, 6, 0, 7, 1, 8, 0, 0, 2, 8, 1, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		r := newRefreshRig(t, 3, 4, 2, len(data)%2 == 1)
		sys := r.in.Sys
		r.check("first build")
		for i := 0; i+1 < len(data); i += 2 {
			op, a := data[i]%10, int(data[i+1])
			numbersOnly := false // any other step may or may not reach the structure
			switch op {
			case 0:
				r.drift(a)
				numbersOnly = true
			case 1:
				sys.Centers[a%sys.L()].Servers = 1 + a%5
			case 2:
				sys.Centers[a%sys.L()].Capacity = 0.5 + float64(a%4)/2
			case 3:
				sys.Centers[a%sys.L()].ServiceRate[a%sys.K()] = 700 + float64(a)
			case 4:
				r.setDeadlines(a%sys.K(), 0.01+float64(a%7)/200)
			case 5:
				r.base.Prices[a%sys.L()] = []float64{30, 3e6}[a%2]
				r.drift(a)
			case 6:
				r.floors = [][]float64{nil, {0.2}, {0, 0.3, 0.1}, {0.5, 0.5, 0.5, 0.5}}[a%4]
			case 7:
				if len(r.floors) > 0 {
					k := a % len(r.floors)
					numbersOnly = r.floors[k] > 0
					r.floors = append([]float64(nil), r.floors...)
					r.floors[k] *= 0.5 + float64(a%3)/4
				}
			case 8:
				r.withhold = a%(sys.K()+1) - 1
			case 9:
				for s := range r.base.Arrivals {
					r.base.Arrivals[s][a%sys.K()] = float64(a % 2 * 400)
				}
				r.drift(a)
			}
			step := fmt.Sprintf("step %d (op %d, %d)", i/2, op, a)
			if rebuilt, sameSet := r.check(step); rebuilt && numbersOnly && sameSet {
				t.Fatalf("%s: moved numbers only and rebuilt the structure", step)
			}
		}
	})
}

// chainInput is slot t of a determinism chain (see the root package's
// TestSlotChainDeterminism): synthInput drifting ±3 % in arrivals and ±2 %
// in prices, at load times the arrivals.
func chainInput(base *Input, slot int, load float64) *Input {
	in := &Input{Sys: base.Sys, Slot: slot, Prices: make([]float64, len(base.Prices)), Arrivals: make([][]float64, len(base.Arrivals))}
	for s := range in.Arrivals {
		in.Arrivals[s] = make([]float64, len(base.Arrivals[s]))
		for k := range in.Arrivals[s] {
			in.Arrivals[s][k] = load * base.Arrivals[s][k] * (1 + 0.03*math.Sin(float64(slot)+float64(s*13+k)))
		}
	}
	for l := range in.Prices {
		in.Prices[l] = base.Prices[l] * (1 + 0.02*math.Cos(float64(slot)+float64(l)))
	}
	return in
}

// TestRefreshedChainEqualsRebuiltChain runs each determinism chain on two
// planners, one refreshing its held LP in place — the capture's, on which a
// refine chain's greedy start and moves are trials — and one made to build
// every slot's in a new model, as the planner did before it held it. The
// two must agree slot by slot in every solver counter and in the %.17g
// objective, through a center losing half its servers mid-chain — which
// both meet by starting over — and getting them back; and the first
// rebuilds exactly on those slots, its one held LP once.
func TestRefreshedChainEqualsRebuiltChain(t *testing.T) {
	chains := []struct {
		name    string
		K, L, S int
		slots   int
		load    float64
		refine  bool
	}{
		{"refine-6x10x3", 6, 10, 3, 12, 1, true},
		{"refine-x3-6x10x3", 6, 10, 3, 8, 3, true},
		{"hot-20x100x3", 20, 100, 3, 8, 1, false},
	}
	for _, c := range chains {
		t.Run(c.name, func(t *testing.T) {
			if c.L == 100 && testing.Short() {
				t.Skip("large topology")
			}
			base := synthInput(c.K, c.L, c.S)
			planner := func(forget bool) *Optimized {
				o := NewOptimized()
				o.Refine, o.Stats = c.refine, &SearchStats{}
				o.warm.hot.d.forget = forget
				return o
			}
			refreshed, rebuilt := planner(false), planner(true)
			const held = 1 // the capture's LP
			for slot := 0; slot < c.slots; slot++ {
				reshaped := slot == 0
				if slot == 4 || slot == 6 { // center 1 degrades, then recovers
					base.Sys.Centers[1].Servers = map[int]int{4: 2, 6: 4}[slot]
					reshaped = true
				}
				in := chainInput(base, slot, c.load)
				got, want := mustPlan(t, refreshed, in), mustPlan(t, rebuilt, in)
				if g, w := fmt.Sprintf("%.17g", got.Objective), fmt.Sprintf("%.17g", want.Objective); g != w {
					t.Fatalf("slot %d: refreshed plan earns %s, rebuilt %s", slot, g, w)
				}
				gs, ws := *refreshed.Stats, *rebuilt.Stats
				if wantRebuilds := map[bool]int64{true: held}[reshaped]; gs.ModelRebuilds != wantRebuilds || ws.ModelRebuilds != held {
					t.Fatalf("slot %d: %d structure rebuilds refreshing (want %d), %d rebuilding (want %d)", slot, gs.ModelRebuilds, wantRebuilds, ws.ModelRebuilds, held)
				}
				if !reshaped && gs.WarmHits < held {
					t.Fatalf("slot %d: stats %+v, want the held solves warm", slot, gs)
				}
				gs.ModelRebuilds, ws.ModelRebuilds = 0, 0
				if gs != ws {
					t.Fatalf("slot %d: solver counters differ\nrefreshed %+v\nrebuilt   %+v", slot, gs, ws)
				}
			}
		})
	}
}

// TestCaptureSolveRefreshesHot pins what a steady slot's capture solve is:
// no structure rebuild, one hot re-solve on the retained kernel — the
// solver sees the model it factorized at the stamp it factorized — and,
// once a center degrades, one rebuild answered by a fresh start.
func TestCaptureSolveRefreshesHot(t *testing.T) {
	base := synthInput(6, 10, 3)
	o := NewOptimized()
	o.Refine, o.Stats = false, &SearchStats{}
	path := func() string { return o.warm.hot.sv.LastOutcome().Path }
	mustPlan(t, o, chainInput(base, 0, 1))
	if path() != "fresh" || o.Stats.ModelRebuilds != 1 {
		t.Fatalf("slot 0: capture solve by %q with %d rebuilds, want the first build crashed all-slack", path(), o.Stats.ModelRebuilds)
	}
	held := o.warm.hot.d.model
	for slot := 1; slot < 5; slot++ {
		mustPlan(t, o, chainInput(base, slot, 1))
		if path() != "hot" || o.Stats.ModelRebuilds != 0 || o.warm.hot.d.model != held {
			t.Fatalf("slot %d: capture solve by %q, %d rebuilds, same model: %v; want a hot refresh", slot, path(), o.Stats.ModelRebuilds, o.warm.hot.d.model == held)
		}
	}
	base.Sys.Centers[2].Servers = 1
	mustPlan(t, o, chainInput(base, 5, 1))
	if path() != "fresh" || o.Stats.ModelRebuilds != 1 || o.Stats.WarmFallbacks != 0 {
		t.Fatalf("degraded slot: capture solve by %q, stats %+v; want one rebuild, imported", path(), *o.Stats)
	}
	mustPlan(t, o, chainInput(base, 6, 1))
	if path() != "hot" || o.Stats.ModelRebuilds != 0 {
		t.Fatalf("slot after the fault: capture solve by %q, %d rebuilds, want hot again", path(), o.Stats.ModelRebuilds)
	}
}

// TestSteadyRefineSlotImportsNothing: a demand-limited 6×10×3 refine slot
// solves two LPs — the capture and the greedy start, every move bounded —
// on its one held LP, and once that is armed it crashes no basis: slot 0
// builds it, each steady slot re-solves the capture hot and the start as a
// trial from the capture's kernel with no import pivot, and a center
// outage makes the capture start over once, after which it is hot again.
func TestSteadyRefineSlotImportsNothing(t *testing.T) {
	base := synthInput(6, 10, 3)
	o := NewOptimized()
	o.Stats = &SearchStats{}
	var paths []string // the ladder rung of each request, in order
	o.warm.onSolve = func([]commodity, []float64, *prices, solution, error) {
		paths = append(paths, o.warm.hot.sv.LastOutcome().Path)
	}
	plan := func(n int, rebuilds int64, capture string) SearchStats {
		t.Helper()
		paths = paths[:0]
		mustPlan(t, o, chainInput(base, n, 1))
		st := *o.Stats
		if st.ModelRebuilds != rebuilds || len(paths) < 2 || paths[0] != capture || paths[1] != "trial" || st.WarmFallbacks != 0 {
			t.Fatalf("slot %d: requests by %v, %+v; want the capture by %q, the start as a trial and %d rebuilds", n, paths, st, capture, rebuilds)
		}
		return st
	}
	steady := func(n int) {
		t.Helper()
		if st := plan(n, 0, "hot"); st.Solves != 2 || st.Trials != 1 || st.WarmHits != 2 || st.ImportPivots != 0 {
			t.Fatalf("slot %d: %+v; want the capture hot, the start a trial and no import", n, st)
		}
	}
	if st := plan(0, 1, "fresh"); st.Solves != 2 || st.ImportPivots == 0 {
		t.Fatalf("slot 0: %+v; want the held LP crashed", st)
	}
	for n := 1; n < 5; n++ {
		steady(n)
	}
	down := base.Sys.Centers[2].Servers
	base.Sys.Centers[2].Servers = 0
	plan(5, 1, "fresh")
	steady(6) // on the rebuilt LP, the slot after the outage is steady again
	base.Sys.Centers[2].Servers = down
	plan(7, 1, "fresh")
	steady(8)
}
