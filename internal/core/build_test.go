package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"profitlb/internal/datacenter"
	"profitlb/internal/obs"
	"profitlb/internal/race"
	"profitlb/internal/tuf"
)

// synthInput is the large-topology construction of the root
// bench_test.go at a chosen size: two-level TUFs, half of the (class,
// center) pairs priced out, so about K·L commodities are admitted.
func synthInput(K, L, S int) *Input {
	sys := &datacenter.System{}
	for k := 0; k < K; k++ {
		u := 12 + float64(k)
		sys.Classes = append(sys.Classes, datacenter.RequestClass{
			Name:                fmt.Sprintf("class%02d", k),
			TUF:                 tuf.MustNew([]tuf.Level{{Utility: u, Deadline: 0.02}, {Utility: u * 0.45, Deadline: 0.08}}),
			TransferCostPerMile: 0.00005,
		})
	}
	arrivals := make([][]float64, S)
	for s := 0; s < S; s++ {
		d := make([]float64, L)
		for l := range d {
			d[l] = 200 + 37*float64((s*7+l*11)%29)
		}
		sys.FrontEnds = append(sys.FrontEnds, datacenter.FrontEnd{Name: fmt.Sprintf("fe%d", s), DistanceMiles: d})
		arrivals[s] = make([]float64, K)
		for k := range arrivals[s] {
			arrivals[s][k] = 400 + 30*float64((s+k)%7)
		}
	}
	prices := make([]float64, L)
	for l := 0; l < L; l++ {
		mu, en := make([]float64, K), make([]float64, K)
		for k := range mu {
			mu[k] = 900 + 20*float64((l+k)%6)
			en[k] = 1.5
			if (l*7+k)%2 == 0 {
				en[k] = 0.0004 + 0.00002*float64((l*3+k)%5)
			}
		}
		sys.Centers = append(sys.Centers, datacenter.DataCenter{
			Name: fmt.Sprintf("dc%02d", l), Servers: 4, Capacity: 1, ServiceRate: mu, EnergyPerRequest: en,
		})
		prices[l] = 30 + float64(l%9)
	}
	return &Input{Sys: sys, Arrivals: arrivals, Prices: prices}
}

// capReservationsRescan is capReservations as it stood before it
// bucketed by center: Σ 1/(D·C·μ) rescanned over every commodity per
// center per eviction round. The reference for victims and order.
func capReservationsRescan(in *Input, orig []commodity) []commodity {
	comms := append([]commodity(nil), orig...)
	sys := in.Sys
	for l := 0; l < sys.L(); l++ {
		for {
			var sum float64
			var at []int
			for ci, c := range comms {
				if c.l == l {
					dc := &sys.Centers[l]
					sum += 1 / (c.deadline * dc.Capacity * dc.ServiceRate[c.k])
					at = append(at, ci)
				}
			}
			if sum <= 0.999 {
				break
			}
			worst := worstEvictable(comms, at)
			if worst < 0 {
				break
			}
			comms = append(comms[:at[worst]], comms[at[worst]+1:]...)
		}
	}
	return comms
}

// TestCapReservationsEvictsWithinBuckets: with deadlines tight enough
// that several centers overflow — some down to their floored
// commodities — the bucketed eviction returns exactly what the rescan
// did, and leaves its input alone.
func TestCapReservationsEvictsWithinBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	evictedAt := map[int]bool{}
	flooredGone := false
	for trial := 0; trial < 50; trial++ {
		K, L := 2+rng.Intn(5), 2+rng.Intn(6)
		in := synthInput(K, L, 2)
		var comms []commodity
		for k := 0; k < K; k++ {
			for q := 0; q < 2; q++ {
				for l := 0; l < L; l++ {
					if rng.Intn(4) == 0 {
						continue
					}
					// 1/(D·C·μ) of 0.1–0.6 a commodity: most centers overflow.
					d := 1 / (in.Sys.Centers[l].ServiceRate[k] * (0.1 + 0.5*rng.Float64()))
					comms = append(comms, commodity{k: k, q: q, l: l, deadline: d,
						bestCoef: float64(rng.Intn(6)) - 1, floored: k == 0 || rng.Intn(5) == 0})
				}
			}
		}
		rng.Shuffle(len(comms), func(i, j int) { comms[i], comms[j] = comms[j], comms[i] })
		before := append([]commodity(nil), comms...)
		got, want := capReservations(in, comms), capReservationsRescan(in, comms)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: bucketed eviction kept\n%+v\nthe rescan kept\n%+v", trial, got, want)
		}
		if !reflect.DeepEqual(comms, before) {
			t.Fatalf("trial %d: input modified", trial)
		}
		kept := map[[3]int]bool{}
		for _, c := range got {
			kept[[3]int{c.k, c.q, c.l}] = true
		}
		for _, c := range comms {
			if !kept[[3]int{c.k, c.q, c.l}] {
				evictedAt[c.l] = true
				flooredGone = flooredGone || c.floored
			}
		}
	}
	if len(evictedAt) < 3 || !flooredGone {
		t.Fatalf("fixture too tame: evictions at %d centers, floored evicted: %v", len(evictedAt), flooredGone)
	}
}

// builderSizes are the benchmark's two topologies: the paper's Section VI
// dimensions and the fleet-large slot.
var builderSizes = []struct {
	name    string
	K, L, S int
}{{"paper-3x3x4", 3, 3, 4}, {"fleet-20x100x3", 20, 100, 3}}

// BenchmarkBuildDispatchLP times one dispatch-LP build with the
// planner's name table already filled (every slot after the first) and
// with a fresh one (a planner's first slot).
func BenchmarkBuildDispatchLP(b *testing.B) {
	for _, sz := range builderSizes {
		in := synthInput(sz.K, sz.L, sz.S)
		comms := capReservations(in, admissibleCommodities(in, nil))
		b.Run(sz.name+"/warm-table", func(b *testing.B) {
			var opts EngineOptions
			names := opts.namesFor(in.Sys)
			buildDispatchLP(in, comms, nil, false, names)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buildDispatchLP(in, comms, nil, false, names)
			}
		})
		b.Run(sz.name+"/cold-table", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var opts EngineOptions
				buildDispatchLP(in, comms, nil, false, opts.namesFor(in.Sys))
			}
		})
	}
}

// TestBuildDispatchLPAllocs is the builder's allocation budget. With the
// table warm a build allocates a fixed handful of slabs — the model's
// four, the handle and index slabs, the row tables, the scratch row's
// few doublings — whatever the size; with no table (and in the
// per-server layout, which has none) it adds one string per name and
// nothing else. A name formatted per build, or a slice made per row,
// breaks the first budget at once. A build into a dispatchLP that has
// held an LP of the size before allocates nothing, whether it finds another
// structure there and builds over it — the spare unit's — or its own and
// refreshes the numbers — the capture solve's.
func TestBuildDispatchLPAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector moves allocations to the heap")
	}
	const slabs = 30 // 21 to 28 measured, by size and layout
	for _, sz := range builderSizes {
		in := synthInput(sz.K, sz.L, sz.S)
		comms := capReservations(in, admissibleCommodities(in, nil))
		var opts EngineOptions
		names := opts.namesFor(in.Sys)
		d := buildDispatchLP(in, comms, nil, false, names)
		if got := testing.AllocsPerRun(5, func() { buildDispatchLP(in, comms, nil, false, names) }); got > slabs {
			t.Errorf("%s: %v allocations a build with a warm name table, budget %d", sz.name, got, slabs)
		}
		budget := float64(slabs + d.model.NumVariables() + d.model.NumConstraints())
		if got := testing.AllocsPerRun(5, func() { buildDispatchLP(in, comms, nil, false, nil) }); got > budget {
			t.Errorf("%s: %v allocations a table-less build of %d commodities, budget %v", sz.name, got, len(comms), budget)
		}
		if got := testing.AllocsPerRun(5, func() { d.build(in, comms, nil, false, names) }); got != 0 || d.rebuilt {
			t.Errorf("%s: %v allocations a refresh into the held dispatchLP (structure rebuilt: %v), want none", sz.name, got, d.rebuilt)
		}
		if got := testing.AllocsPerRun(5, func() {
			d.build(in, comms[1:], nil, false, names)
			d.build(in, comms, nil, false, names)
		}); got != 0 || !d.rebuilt {
			t.Errorf("%s: %v allocations two builds over another structure in a recycled dispatchLP (rebuilt: %v), want none", sz.name, got, d.rebuilt)
		}
		d = buildDispatchLP(in, comms, nil, true, nil)
		budget = float64(slabs + d.model.NumVariables() + d.model.NumConstraints())
		if got := testing.AllocsPerRun(5, func() { buildDispatchLP(in, comms, nil, true, nil) }); got > budget {
			t.Errorf("%s: %v allocations a per-server build of %d commodities, budget %v", sz.name, got, len(comms), budget)
		}
	}
}

// refineSlot is the fleet-refine-mid slot: 6×10×3, two TUF levels, refine
// on. Demand-limited: no share row is priced, so the bound turns every
// one of the ~180 moves down and a Plan is two LPs.
func refineSlot() (*Optimized, *Input) {
	o := NewOptimized()
	o.Stats = &SearchStats{}
	return o, synthInput(6, 10, 3)
}

// refineSlotBusy is refineSlot at three times the arrivals, where the
// centers fill up: the bound turns down two moves in three and ~135
// survivors (58 to 88 rows, all on the LU kernel) are solved from their
// incumbents' bases, with memo-cache hits on each converged pass.
func refineSlotBusy() (*Optimized, *Input) {
	o, in := refineSlot()
	scaleArrivals(in, 3)
	return o, in
}

func scaleArrivals(in *Input, by float64) {
	for s := range in.Arrivals {
		for k := range in.Arrivals[s] {
			in.Arrivals[s][k] *= by
		}
	}
}

// refineFixtures names the two for the benchmark and for the allocation
// budget of a warm Plan.
var refineFixtures = []struct {
	name                 string
	make                 func() (*Optimized, *Input)
	maxObjects, maxBytes uint64
}{
	{"demand-limited", refineSlot, 1_500, 57_000}, // 51 392 measured
	{"capacity-limited", refineSlotBusy, 7_000, 2_200_000},
}

// BenchmarkRefineSlot times one warm refine Plan, the slot commit's
// dominant piece (make profile profiles the capacity-limited one).
func BenchmarkRefineSlot(b *testing.B) {
	for _, fx := range refineFixtures {
		b.Run(fx.name, func(b *testing.B) {
			o, in := fx.make()
			mustPlan(b, o, in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Plan(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCaptureSlot times the slot commit's planner side where a slot is
// its capture solve alone — refine off, as on fleet-large — over a 12-slot
// day of ±3 % arrivals and ±2 % prices like the fleet workloads': refresh
// the held LP's numbers, re-solve hot, extract, allocate the plan. make
// profile W=commit profiles the 20×100×3 one.
func BenchmarkCaptureSlot(b *testing.B) {
	for _, sz := range []struct {
		name    string
		K, L, S int
	}{{"mid-6x10x3", 6, 10, 3}, {"fleet-20x100x3", 20, 100, 3}} {
		b.Run(sz.name, func(b *testing.B) {
			base := synthInput(sz.K, sz.L, sz.S)
			day := make([]*Input, 12)
			for t := range day {
				day[t] = chainInput(base, t, 1)
			}
			o := NewOptimized()
			o.Refine, o.Stats = false, &SearchStats{}
			mustPlan(b, o, day[0])
			var pivots int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Plan(day[(i+1)%len(day)]); err != nil {
					b.Fatal(err)
				}
				pivots += o.Stats.WarmPivots + o.Stats.ColdPivots
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
		})
	}
}

// TestRefinePlanAllocs is the refine slot's allocation budget, twice. The
// demand-limited slot shows what the search's bookkeeping costs when the
// bound turns every move down: a move must be bounded before anything is
// built for it (a trial list per move was 515 KB a Plan). The
// capacity-limited one keeps the seeded solves' spare unit honest: before
// the solver, the trial model and its handles were reused with it, ~150
// solves allocated 30 341 objects and 11.5 MB.
func TestRefinePlanAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector moves allocations to the heap")
	}
	for _, fx := range refineFixtures {
		o, in := fx.make()
		for i := 0; i < 3; i++ { // slot 0 solves cold; then the units' slabs settle
			mustPlan(t, o, in)
		}
		st := *o.Stats
		drifted := st.Bounded < 150 || st.WarmHits != st.Solves
		if fx.name == "demand-limited" {
			drifted = drifted || st.Solves > 5
		} else {
			drifted = drifted || st.Solves < 100 || st.SparseSolves != st.Solves || st.CacheHits == 0
		}
		if drifted {
			t.Fatalf("%s: fixture drifted: %+v, want ≥ 150 moves bounded and every solve warm: ≤ 5 demand-limited, ≥ 100 on the LU kernel with cache hits capacity-limited", fx.name, st)
		}
		var before, after runtime.MemStats
		const runs = 5
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := o.Plan(in); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		objects, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
		t.Logf("%s: %d objects, %d bytes a warm refine Plan (%d solves, %d bounded)", fx.name, objects, bytes, st.Solves, st.Bounded)
		if objects > fx.maxObjects || bytes > fx.maxBytes {
			t.Errorf("%s: a warm refine Plan allocates %d objects and %d bytes, budget %d and %d", fx.name, objects, bytes, fx.maxObjects, fx.maxBytes)
		}
	}
}

// TestRefactorsReachTheBooks: a sparse basis refactorized in place is
// booked as that, from the solver's Outcome to SearchStats, the metric and
// the engine event — not as a crashed basis. Slot 0 of the 20×100×3 capture
// chain crashes 2 160 columns once and refactorizes every 100 of its ~2 200
// pivots; the hot slots after it crash nothing, and the one whose pivots
// fill the eta file says so.
func TestRefactorsReachTheBooks(t *testing.T) {
	base := synthInput(20, 100, 3)
	o := NewOptimized()
	o.Refine, o.Stats = false, &SearchStats{}
	reg, events := obs.NewRegistry(), &obs.Collector{}
	o.Obs = obs.NewScope(reg, events)
	var total int64
	for slot := 0; slot < 40; slot++ {
		mustPlan(t, o, chainInput(base, slot, 1))
		st := *o.Stats
		total += st.Refactors
		evs := events.Events()
		if got := evs[len(evs)-1].Values["lpRefactors"]; got != float64(st.Refactors) {
			t.Fatalf("slot %d: engine event carries lpRefactors=%v, stats say %d", slot, got, st.Refactors)
		}
		if slot == 0 {
			if st.ImportPivots != 2160 || st.Refactors < st.WarmPivots/100 || st.Refactors == 0 {
				t.Fatalf("slot 0: %+v, want one 2160-column crash and a refactorization per 100 pivots", st)
			}
			total = 0
		} else if st.ImportPivots != 0 || st.WarmFallbacks != 0 {
			t.Fatalf("slot %d: %+v, want a hot slot that crashes nothing", slot, st)
		}
	}
	if total == 0 {
		t.Fatal("39 hot slots never filled the eta file: fixture drifted")
	}
	if got := reg.Counter("core_lp_refactors_total").Value(); got < total {
		t.Fatalf("core_lp_refactors_total = %d, the hot slots alone refactorized %d times", got, total)
	}
}

// TestImportPivotsReachTheBooks: the crash work of a slot's seeded solves
// arrives in SearchStats, the metrics and the engine event — every
// imported solve crashes a full basis, so the count dwarfs WarmPivots —
// and repeats exactly on an identical slot; the count of moves the dual
// bound rejected travels the same way.
func TestImportPivotsReachTheBooks(t *testing.T) {
	o, in := refineSlotBusy()
	reg, events := obs.NewRegistry(), &obs.Collector{}
	o.Obs = obs.NewScope(reg, events)
	mustPlan(t, o, in)
	mustPlan(t, o, in)
	second := *o.Stats
	mustPlan(t, o, in)
	if *o.Stats != second {
		t.Fatalf("an identical slot ran differently:\n%+v\n%+v", second, *o.Stats)
	}
	if second.ImportPivots < 10*second.WarmPivots || second.ImportPivots < second.Solves {
		t.Fatalf("stats %+v: want every solve's crash counted", second)
	}
	evs := events.Events()
	if got := evs[len(evs)-1].Values["lpImportPivots"]; got != float64(second.ImportPivots) {
		t.Fatalf("engine event carries lpImportPivots=%v, stats say %d", got, second.ImportPivots)
	}
	if got := reg.Counter("core_lp_import_pivots_total").Value(); got < 2*second.ImportPivots {
		t.Fatalf("core_lp_import_pivots_total = %d after three slots, the last two alone crashed %d", got, 2*second.ImportPivots)
	}
	// So do the moves the bound turned down unsolved.
	if got := evs[len(evs)-1].Values["lpBounded"]; second.Bounded == 0 || got != float64(second.Bounded) {
		t.Fatalf("engine event carries lpBounded=%v, stats say %d", got, second.Bounded)
	}
	if got := reg.Counter("core_lp_bounded_total").Value(); got < 3*second.Bounded/2 {
		t.Fatalf("core_lp_bounded_total = %d after three slots of ~%d each", got, second.Bounded)
	}
}
