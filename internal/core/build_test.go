package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"profitlb/internal/datacenter"
	"profitlb/internal/market"
	"profitlb/internal/obs"
	"profitlb/internal/race"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
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
// center per eviction round, after dropping every commodity that cannot
// fit alone. The reference for victims and order.
func capReservationsRescan(in *Input, orig []commodity) []commodity {
	sys := in.Sys
	comms := slices.DeleteFunc(append([]commodity(nil), orig...), func(c commodity) bool {
		return reservation(sys, c) > reserveMargin
	})
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

// TestCapReservationsEvictsTheUnfittableFirst: a commodity whose
// zero-load reservation alone overflows its server goes first, however
// valuable, so the cheap commodity that fits beside it stays. Ordered by
// value alone, the cheap one went first and the center served nothing.
func TestCapReservationsEvictsTheUnfittableFirst(t *testing.T) {
	in := synthInput(2, 1, 1)
	dc := &in.Sys.Centers[0]
	rate := func(k int) float64 { return dc.Capacity * dc.ServiceRate[k] }
	comms := []commodity{
		{k: 0, l: 0, deadline: 2 / rate(0), bestCoef: 1},    // reserves one half
		{k: 1, l: 0, deadline: 0.5 / rate(1), bestCoef: 50}, // reserves two servers
	}
	got := capReservations(in, comms)
	if len(got) != 1 || got[0].k != 0 {
		t.Fatalf("kept %+v, want the commodity that fits", got)
	}
	if again := capReservationsRescan(in, comms); !reflect.DeepEqual(again, got) {
		t.Fatalf("the rescan keeps %+v", again)
	}
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
// centers fill up: the bound turns down two moves in three and ~145
// survivors are solved, most as trials on the capture's 88-row LP (the LU
// kernel) from their incumbents' kernels.
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
	{"demand-limited", refineSlot, 1_500, 35_000}, // 31 760 measured
	{"capacity-limited", refineSlotBusy, 7_000, 2_200_000},
}

// BenchmarkRefineSlot times one warm refine Plan, the slot commit's
// dominant piece, on the two refine fixtures and on the paper-day slot
// (paperDaySlot), reporting per Plan the moves that survived the dual
// bound (every request but the capture and the greedy start), how many of
// them were trials on the capture's LP and how many of those their cutoff
// stopped, and the basis-crash work. make
// profile profiles the capacity-limited row (W=refine) and the paper-day
// one (W=day).
func BenchmarkRefineSlot(b *testing.B) {
	rows := append(slices.Clone(refineFixtures), struct {
		name                 string
		make                 func() (*Optimized, *Input)
		maxObjects, maxBytes uint64
	}{name: "paper-day", make: func() (*Optimized, *Input) { return paperDaySlot(b) }})
	for _, fx := range rows {
		b.Run(fx.name, func(b *testing.B) {
			o, in := fx.make()
			mustPlan(b, o, in)
			var survivors, trials, cuts, crashed int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Plan(in); err != nil {
					b.Fatal(err)
				}
				st := o.Stats
				survivors += st.Solves - held(in)
				trials, cuts, crashed = trials+st.Trials, cuts+st.Cuts, crashed+st.ImportPivots
			}
			b.ReportMetric(float64(survivors)/float64(b.N), "survivors/op")
			b.ReportMetric(float64(trials)/float64(b.N), "trials/op")
			b.ReportMetric(float64(cuts)/float64(b.N), "cuts/op")
			b.ReportMetric(float64(crashed)/float64(b.N), "import-pivots/op")
		})
	}
}

// held is the number of a refine Plan's requests that are not moves: the
// capture, and the greedy start where a class has levels to climb.
func held(in *Input) int64 {
	if multiLevel(in) {
		return 2
	}
	return 1
}

// paperDay is the day the paper-day benchmark workload plans: the Section
// VI system (Tables IV–VII: 3 one-level classes, 4 front-ends, 3 centers
// of 6 servers), four World-Cup-like front-end traces from seed 7 shifted
// into the three types, and the embedded location prices, slot t's input
// being the traces' and prices' slot t.
func paperDay() []*Input {
	mu := func(perHour ...float64) []float64 {
		for i := range perHour {
			perHour[i] /= 6
		}
		return perHour
	}
	level := func(u, d float64) *tuf.StepDownward { return tuf.MustNew([]tuf.Level{{Utility: u, Deadline: d}}) }
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "request1", TUF: level(10, 0.010), TransferCostPerMile: 0.003},
			{Name: "request2", TUF: level(20, 0.008), TransferCostPerMile: 0.005},
			{Name: "request3", TUF: level(30, 0.006), TransferCostPerMile: 0.007},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "frontend1", DistanceMiles: []float64{300, 1900, 700}},
			{Name: "frontend2", DistanceMiles: []float64{500, 2100, 900}},
			{Name: "frontend3", DistanceMiles: []float64{400, 2000, 600}},
			{Name: "frontend4", DistanceMiles: []float64{600, 2200, 800}},
		},
		Centers: []datacenter.DataCenter{
			{Name: "datacenter1", Servers: 6, Capacity: 1, ServiceRate: mu(9000, 8400, 7200), EnergyPerRequest: []float64{0.0003, 0.0005, 0.0007}},
			{Name: "datacenter2", Servers: 6, Capacity: 1, ServiceRate: mu(9000, 7800, 9600), EnergyPerRequest: []float64{0.00028, 0.00052, 0.00068}},
			{Name: "datacenter3", Servers: 6, Capacity: 1, ServiceRate: mu(15000, 9000, 8400), EnergyPerRequest: []float64{0.00032, 0.00048, 0.00072}},
		},
	}
	const slots, seed = 24, 7
	traces := make([]*workload.Trace, sys.S())
	for s := range traces {
		base := workload.WorldCupLike(workload.WorldCupConfig{Seed: seed*1000 + 101 + int64(s), Base: 650 + 100*float64(s), Slots: slots})
		traces[s] = workload.ShiftTypes(sys.FrontEnds[s].Name, base, sys.K(), 4)
	}
	prices := market.Locations()
	day := make([]*Input, slots)
	for t := range day {
		in := &Input{Sys: sys, Arrivals: make([][]float64, sys.S()), Prices: make([]float64, sys.L()), Slot: t}
		for s := range in.Arrivals {
			in.Arrivals[s] = make([]float64, sys.K())
			for k := range in.Arrivals[s] {
				in.Arrivals[s][k] = traces[s].At(t, k)
			}
		}
		for l := range in.Prices {
			in.Prices[l] = prices[l].At(t)
		}
		day[t] = in
	}
	return day
}

// paperDaySlot is the paper-day slot whose refine search cuts the most
// trials short (six trials, five cut, on the seed-7 day), with the default
// planner warmed through the day up to it.
func paperDaySlot(t testing.TB) (*Optimized, *Input) {
	day := paperDay()
	busiest, most := 0, int64(-1)
	probe := NewOptimized()
	probe.Stats = &SearchStats{}
	for i, in := range day {
		mustPlan(t, probe, in)
		if n := probe.Stats.Cuts; n > most {
			busiest, most = i, n
		}
	}
	o := NewOptimized()
	o.Stats = &SearchStats{}
	for _, in := range day[:busiest] {
		mustPlan(t, o, in)
	}
	return o, day[busiest]
}

// TestHeldDenseKernelStaysSound replans the paper-day slot 400 times on
// one planner. The search's trials run on the capture's dense kernel but
// leave the hot chain where the capture left it, so the accepted moves do
// not lengthen the tableau's lineage: resumed from each call's final
// incumbent instead, it pivoted back and forth between the two vertices,
// its zeros reached the pivot tolerance within ~60 plans, and trials
// failed their audits. Every trial answers, no solve falls back and no
// basis is crashed; the only refactorizations are the 200-use drift bound.
func TestHeldDenseKernelStaysSound(t *testing.T) {
	o, in := paperDaySlot(t)
	var refactors int64
	for i := 0; i < 400; i++ {
		mustPlan(t, o, in)
		st := *o.Stats
		if st.AbandonedPivots != 0 || st.WarmFallbacks != 0 || st.ImportPivots != 0 || st.Trials != st.Solves-1 {
			t.Fatalf("plan %d: %+v: want every survivor answered as a trial, and nothing crashed", i, st)
		}
		refactors += st.Refactors
	}
	if refactors > 3 {
		t.Fatalf("%d refactorizations in 400 plans: want the 200-use drift bound's alone", refactors)
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
			o, day := captureDay(sz.K, sz.L, sz.S)
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

// captureDay is BenchmarkCaptureSlot's K×L×S fleet: a refine-off planner
// and a 12-slot day of ±3 % arrivals and ±2 % prices.
func captureDay(K, L, S int) (*Optimized, []*Input) {
	base := synthInput(K, L, S)
	day := make([]*Input, 12)
	for t := range day {
		day[t] = chainInput(base, t, 1)
	}
	o := NewOptimized()
	o.Refine, o.Stats = false, &SearchStats{}
	return o, day
}

// TestCaptureSlotAllocs is the allocation budget of a steady 20×100×3
// capture slot, fleet-large's planner side. What is left is the plan
// (NewPlan, ~190 kB) and the solve's Result and basis; before the planner
// held its lists and priced each route once, a Plan allocated 707 kB in 209
// objects — ~130 of them allocateCenter's per-center lists.
func TestCaptureSlotAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector moves allocations to the heap")
	}
	const maxObjects, maxBytes = 60, 350_000 // 14 and 319 000 measured
	o, day := captureDay(20, 100, 3)
	for i := 0; i < 3; i++ { // slot 0 solves cold; then the held slabs settle
		mustPlan(t, o, day[i])
	}
	if st := *o.Stats; st.ModelRebuilds != 0 || st.ImportPivots != 0 || st.Solves != 1 {
		t.Fatalf("fixture drifted: %+v, want one hot solve a slot", st)
	}
	var before, after runtime.MemStats
	const runs = 8
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := o.Plan(day[3+i]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	objects, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	t.Logf("%d objects, %d bytes a steady 20×100×3 capture Plan", objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("a steady capture Plan allocates %d objects and %d bytes, budget %d and %d", objects, bytes, maxObjects, maxBytes)
	}
}

// TestRefinePlanAllocs is the refine slot's allocation budget, twice. The
// demand-limited slot shows what the search's bookkeeping costs when the
// bound turns every move down: a move must be bounded before anything is
// built for it (a trial list per move was 515 KB a Plan). The
// capacity-limited one keeps the search and spare units honest: before
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
			drifted = drifted || st.Solves < 100 || st.SparseSolves != st.Solves || st.Trials < st.Solves/2 || st.Cuts == 0
		}
		if drifted {
			t.Fatalf("%s: fixture drifted: %+v, want ≥ 150 moves bounded and every solve warm: ≤ 5 demand-limited, ≥ 100 on the LU kernel capacity-limited, most of them trials and some cut", fx.name, st)
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

// TestCheckpointOnlyWhereMovesSurvive: the demand-limited slot, whose
// moves the dual bound all turns down, solves no trial and takes no
// checkpoint of the hot kernel; the capacity-limited one solves its
// survivors as trials on the capture's own LP and, once its first slot is
// behind it, crashes no basis at all where it crashed one per survivor,
// ~55 columns each.
func TestCheckpointOnlyWhereMovesSurvive(t *testing.T) {
	o, in := refineSlot()
	for i := 0; i < 3; i++ {
		mustPlan(t, o, in)
		if st := *o.Stats; st.Trials != 0 || st.Bounded == 0 || o.warm.hot.cp != 0 {
			t.Fatalf("demand-limited slot %d: %+v, checkpoint taken: %v", i, st, o.warm.hot.cp != 0)
		}
	}
	o, in = refineSlotBusy()
	for i := 0; i < 3; i++ {
		mustPlan(t, o, in)
		st := *o.Stats
		survivors := st.Solves - held(in)
		if st.Trials < survivors/2 || i > 0 && st.ImportPivots != 0 {
			t.Fatalf("capacity-limited slot %d: %+v, %d survivors: want most solved as trials, and no crash after the first slot", i, st, survivors)
		}
	}
}

// TestImportPivotsReachTheBooks: the crash work of a slot's solves — on
// this fixture the first slot's capture, its survivors being trials on the
// capture's LP — arrives in SearchStats, the metrics and the engine event;
// an identical slot after it crashes nothing and repeats exactly; the
// counts of moves the dual bound rejected and of trials their cutoff
// stopped travel the same way.
func TestImportPivotsReachTheBooks(t *testing.T) {
	o, in := refineSlotBusy()
	reg, events := obs.NewRegistry(), &obs.Collector{}
	o.Obs = obs.NewScope(reg, events)
	mustPlan(t, o, in)
	first := *o.Stats
	if first.ImportPivots == 0 || first.Trials < first.Solves/2 {
		t.Fatalf("stats %+v: want the capture's crash counted, and most survivors solved as trials", first)
	}
	if got := events.Events()[0].Values["lpImportPivots"]; got != float64(first.ImportPivots) {
		t.Fatalf("engine event carries lpImportPivots=%v, stats say %d", got, first.ImportPivots)
	}
	mustPlan(t, o, in)
	second := *o.Stats
	mustPlan(t, o, in)
	if *o.Stats != second || second.ImportPivots != 0 {
		t.Fatalf("an identical slot ran differently, or crashed:\n%+v\n%+v", second, *o.Stats)
	}
	if got := reg.Counter("core_lp_import_pivots_total").Value(); got != first.ImportPivots {
		t.Fatalf("core_lp_import_pivots_total = %d after three slots, the first alone crashed %d", got, first.ImportPivots)
	}
	// So do the moves the bound turned down unsolved.
	evs := events.Events()
	if got := evs[len(evs)-1].Values["lpBounded"]; second.Bounded == 0 || got != float64(second.Bounded) {
		t.Fatalf("engine event carries lpBounded=%v, stats say %d", got, second.Bounded)
	}
	if got := reg.Counter("core_lp_bounded_total").Value(); got < 3*second.Bounded/2 {
		t.Fatalf("core_lp_bounded_total = %d after three slots of ~%d each", got, second.Bounded)
	}
	if got := evs[len(evs)-1].Values["lpCuts"]; second.Cuts == 0 || second.Cuts > second.Trials || got != float64(second.Cuts) {
		t.Fatalf("engine event carries lpCuts=%v, stats say %d of %d trials cut", got, second.Cuts, second.Trials)
	}
	if got := reg.Counter("core_lp_cuts_total").Value(); got != first.Cuts+2*second.Cuts {
		t.Fatalf("core_lp_cuts_total = %d after three slots, the stats %d + 2×%d", got, first.Cuts, second.Cuts)
	}
}
