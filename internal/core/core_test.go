package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"profitlb/internal/datacenter"
	"profitlb/internal/lp"
	"profitlb/internal/tuf"
)

// oneDCSystem is the smallest interesting topology: one class, one
// front-end, one data center of two servers.
func oneDCSystem() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.1}}), TransferCostPerMile: 0.001},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "fe", DistanceMiles: []float64{100}}},
		Centers: []datacenter.DataCenter{{
			Name: "dc", Servers: 2, Capacity: 1,
			ServiceRate:      []float64{100},
			EnergyPerRequest: []float64{0.001},
		}},
	}
}

// twoDCSystem has a cheap far center and an expensive near center.
func twoDCSystem() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.1}}), TransferCostPerMile: 0.0005},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "fe", DistanceMiles: []float64{100, 1000}}},
		Centers: []datacenter.DataCenter{
			{Name: "near", Servers: 3, Capacity: 1, ServiceRate: []float64{100}, EnergyPerRequest: []float64{4}},
			{Name: "far", Servers: 3, Capacity: 1, ServiceRate: []float64{100}, EnergyPerRequest: []float64{4}},
		},
	}
}

func mustPlan(t testing.TB, p Planner, in *Input) *Plan {
	t.Helper()
	plan, err := p.Plan(in)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	if err := Verify(in, plan, 1e-6); err != nil {
		t.Fatalf("%s: plan fails verification: %v", p.Name(), err)
	}
	return plan
}

func TestOptimizedServesProfitableLoad(t *testing.T) {
	sys := oneDCSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{50}}, Prices: []float64{0.1}}
	plan := mustPlan(t, NewOptimized(), in)
	if got := plan.Served(0); math.Abs(got-50) > 1e-6 {
		t.Fatalf("served %g, want all 50", got)
	}
	if plan.Objective <= 0 {
		t.Fatalf("objective %g, want positive", plan.Objective)
	}
}

func TestOptimizedRefusesUnprofitableLoad(t *testing.T) {
	sys := oneDCSystem()
	// Energy so expensive that serving loses money: 200 kWh/request at
	// $0.1/kWh = $20 > $10 utility.
	sys.Centers[0].EnergyPerRequest[0] = 200
	in := &Input{Sys: sys, Arrivals: [][]float64{{50}}, Prices: []float64{0.1}}
	plan := mustPlan(t, NewOptimized(), in)
	if got := plan.Served(0); got != 0 {
		t.Fatalf("served %g, want 0", got)
	}
	if plan.ServersOn[0] != 0 {
		t.Fatalf("servers on %d, want 0 (power off idle center)", plan.ServersOn[0])
	}
	if plan.Objective != 0 {
		t.Fatalf("objective %g, want 0", plan.Objective)
	}
}

func TestOptimizedRespectsCapacity(t *testing.T) {
	sys := oneDCSystem()
	// 2 servers × (1·100 − 1/0.1) = 180 max within the deadline.
	in := &Input{Sys: sys, Arrivals: [][]float64{{500}}, Prices: []float64{0.1}}
	plan := mustPlan(t, NewOptimized(), in)
	if got := plan.Served(0); math.Abs(got-180) > 1e-4 {
		t.Fatalf("served %g, want capacity 180", got)
	}
}

func TestOptimizedPrefersCheapElectricity(t *testing.T) {
	sys := twoDCSystem()
	in := &Input{
		Sys:      sys,
		Arrivals: [][]float64{{100}},
		// Near is pricey ($2/kWh × 4 kWh = $8 ≈ utility), far is cheap.
		Prices: []float64{2.0, 0.5},
	}
	plan := mustPlan(t, NewOptimized(), in)
	near := plan.TypeCenterRate(0, 0)
	far := plan.TypeCenterRate(0, 1)
	if far <= near {
		t.Fatalf("near %g, far %g: expected the cheap far center to win", near, far)
	}
}

func TestOptimizedAccountsTransferCost(t *testing.T) {
	sys := twoDCSystem()
	// Equal prices: transfer cost should steer to the near center.
	in := &Input{Sys: sys, Arrivals: [][]float64{{100}}, Prices: []float64{0.5, 0.5}}
	plan := mustPlan(t, NewOptimized(), in)
	near := plan.TypeCenterRate(0, 0)
	far := plan.TypeCenterRate(0, 1)
	if near <= far {
		t.Fatalf("near %g, far %g: expected the near center to win on transfer cost", near, far)
	}
}

func TestOptimizedConsolidates(t *testing.T) {
	sys := oneDCSystem()
	sys.Centers[0].Servers = 10
	// Tiny load: one server plus reservation fits easily.
	in := &Input{Sys: sys, Arrivals: [][]float64{{10}}, Prices: []float64{0.1}}
	plan := mustPlan(t, NewOptimized(), in)
	if plan.ServersOn[0] != 1 {
		t.Fatalf("servers on = %d, want 1", plan.ServersOn[0])
	}
}

func TestOptimizedConsolidationDelayStillMet(t *testing.T) {
	sys := oneDCSystem()
	sys.Centers[0].Servers = 8
	in := &Input{Sys: sys, Arrivals: [][]float64{{120}}, Prices: []float64{0.1}}
	plan := mustPlan(t, NewOptimized(), in)
	d := plan.Delay(sys, 0, 0, 0)
	if d > 0.1+1e-9 {
		t.Fatalf("delay %g exceeds deadline 0.1 after consolidation", d)
	}
}

func TestOptimizedPicksBestLevelSubset(t *testing.T) {
	// The tight level is so reservation-hungry (1/D = 91 of the 100
	// req/s a full server offers) that serving at it caps the center at
	// ~18 req/s, while the loose level serves all 150 arrivals. The
	// subset search must discover that excluding the tight level wins,
	// even though its per-request utility is higher.
	sys := oneDCSystem()
	sys.Classes[0].TUF = tuf.MustNew([]tuf.Level{
		{Utility: 10, Deadline: 0.011}, // tight: per-server max 100−90.9 ≈ 9
		{Utility: 6, Deadline: 1},      // loose: per-server max ≈ 99
	})
	in := &Input{Sys: sys, Arrivals: [][]float64{{150}}, Prices: []float64{0.1}}
	plan := mustPlan(t, NewOptimized(), in)
	fast := plan.CenterRate(0, 0, 0)
	slow := plan.CenterRate(0, 1, 0)
	if fast != 0 || math.Abs(slow-150) > 1e-4 {
		t.Fatalf("fast %g slow %g: expected all 150 at the loose level", fast, slow)
	}
	// Loose-level profit: 150 × (6 − 0.001·0.1 − 0.001·100) ≈ 884.985.
	if math.Abs(plan.Objective-884.985) > 0.01 {
		t.Fatalf("objective %g, want ≈ 884.985", plan.Objective)
	}
}

func TestPerServerMatchesAggregated(t *testing.T) {
	sys := twoDCSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{120}}, Prices: []float64{0.7, 0.9}}
	agg := mustPlan(t, NewOptimized(), in)
	ps := NewOptimized()
	ps.PerServer = true
	per := mustPlan(t, ps, in)
	if math.Abs(agg.Objective-per.Objective) > 1e-7*math.Abs(agg.Objective) {
		t.Fatalf("aggregated %g vs per-server %g", agg.Objective, per.Objective)
	}
}

// TestDispatchLayoutsAgree: the one dispatch-LP builder emits both
// layouts — a center as one group of M servers or as M groups of one —
// and they are the same LP in value, with and without completion floors;
// the per-server one carries M copies of every aggregated variable and
// cap/share row, and its rates sum back over the groups.
func TestDispatchLayoutsAgree(t *testing.T) {
	_, in := starvationSystem()
	for _, floors := range [][]float64{nil, {0.5, 0}} {
		comms := capReservations(in, admissibleCommodities(in, floors))
		sortCommodities(comms)
		agg := buildDispatchLP(in, comms, floors, false, nil)
		per := buildDispatchLP(in, comms, floors, true, nil)
		servers := 0
		for _, c := range comms {
			servers += in.Sys.Centers[c.l].Servers
		}
		if got, want := per.model.NumVariables(), servers*(in.Sys.S()+1); got != want {
			t.Fatalf("floors %v: per-server layout has %d variables, want %d", floors, got, want)
		}
		if got, want := agg.model.NumVariables(), len(comms)*(in.Sys.S()+1); got != want {
			t.Fatalf("floors %v: aggregated layout has %d variables, want %d", floors, got, want)
		}
		ra, err := agg.model.SolveOpts(lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rp, err := per.model.SolveOpts(lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ra.Objective-rp.Objective) > 1e-7*math.Abs(ra.Objective) {
			t.Fatalf("floors %v: aggregated %g vs per-server %g", floors, ra.Objective, rp.Objective)
		}
		var sumA, sumP float64
		for ci := range comms {
			for s := 0; s < in.Sys.S(); s++ {
				sumA += agg.extractRates(ra)[ci][s]
				sumP += per.extractRates(rp)[ci][s]
			}
		}
		if math.Abs(sumA-sumP) > 1e-6*(1+sumA) {
			t.Fatalf("floors %v: aggregated serves %g, per-server %g", floors, sumA, sumP)
		}
	}
}

func TestLevelSearchMatchesOptimizedOneLevel(t *testing.T) {
	// With one-level TUFs the level space is trivial, so both planners
	// solve the same LP and must agree exactly.
	sys := twoDCSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{150}}, Prices: []float64{0.8, 0.6}}
	a := mustPlan(t, NewOptimized(), in)
	b := mustPlan(t, NewLevelSearch(), in)
	if math.Abs(a.Objective-b.Objective) > 1e-6 {
		t.Fatalf("optimized %g vs level-search %g", a.Objective, b.Objective)
	}
}

func multiLevelSystem() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "r1", TUF: tuf.MustNew([]tuf.Level{{Utility: 12, Deadline: 0.05}, {Utility: 5, Deadline: 0.5}}), TransferCostPerMile: 0.0004},
			{Name: "r2", TUF: tuf.MustNew([]tuf.Level{{Utility: 25, Deadline: 0.02}, {Utility: 9, Deadline: 0.3}}), TransferCostPerMile: 0.0008},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "fe", DistanceMiles: []float64{300, 1200}}},
		Centers: []datacenter.DataCenter{
			{Name: "dc1", Servers: 4, Capacity: 1, ServiceRate: []float64{150, 110}, EnergyPerRequest: []float64{1.5, 2.5}},
			{Name: "dc2", Servers: 4, Capacity: 1, ServiceRate: []float64{120, 140}, EnergyPerRequest: []float64{1.0, 2.0}},
		},
	}
}

func TestOptimizedAtLeastLevelSearch(t *testing.T) {
	// The split-commodity LP dominates any single-level commitment.
	sys := multiLevelSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	opt := mustPlan(t, NewOptimized(), in)
	lsp := NewLevelSearch()
	lsp.Strategy = Exhaustive
	ls := mustPlan(t, lsp, in)
	if opt.Objective < ls.Objective-1e-6 {
		t.Fatalf("optimized %g below exhaustive level search %g", opt.Objective, ls.Objective)
	}
}

func TestBranchBoundMatchesExhaustive(t *testing.T) {
	sys := multiLevelSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{400, 300}}, Prices: []float64{1.2, 0.9}}
	ex := NewLevelSearch()
	ex.Strategy = Exhaustive
	bb := NewLevelSearch()
	bb.Strategy = BranchBound
	pe := mustPlan(t, ex, in)
	pb := mustPlan(t, bb, in)
	if math.Abs(pe.Objective-pb.Objective) > 1e-6 {
		t.Fatalf("exhaustive %g vs branch-and-bound %g", pe.Objective, pb.Objective)
	}
}

func TestGreedyWithinExhaustive(t *testing.T) {
	sys := multiLevelSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{200, 150}}, Prices: []float64{0.8, 1.1}}
	ex := NewLevelSearch()
	ex.Strategy = Exhaustive
	gr := NewLevelSearch()
	gr.Strategy = Greedy
	pe := mustPlan(t, ex, in)
	pg := mustPlan(t, gr, in)
	if pg.Objective > pe.Objective+1e-6 {
		t.Fatalf("greedy %g exceeds exhaustive %g", pg.Objective, pe.Objective)
	}
	if pg.Objective < 0 {
		t.Fatalf("greedy objective %g negative", pg.Objective)
	}
}

func TestEmptyArrivalsEmptyPlan(t *testing.T) {
	sys := twoDCSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{0}}, Prices: []float64{0.5, 0.5}}
	plan := mustPlan(t, NewOptimized(), in)
	if plan.Served(0) != 0 || plan.TotalServersOn() != 0 || plan.Objective != 0 {
		t.Fatalf("expected empty plan, got served %g, on %d, obj %g",
			plan.Served(0), plan.TotalServersOn(), plan.Objective)
	}
}

func TestInputValidation(t *testing.T) {
	sys := oneDCSystem()
	bad := []*Input{
		{Sys: nil},
		{Sys: sys, Arrivals: [][]float64{}, Prices: []float64{0.1}},
		{Sys: sys, Arrivals: [][]float64{{1, 2}}, Prices: []float64{0.1}},
		{Sys: sys, Arrivals: [][]float64{{-1}}, Prices: []float64{0.1}},
		{Sys: sys, Arrivals: [][]float64{{1}}, Prices: []float64{}},
		{Sys: sys, Arrivals: [][]float64{{1}}, Prices: []float64{-0.1}},
		{Sys: sys, Arrivals: [][]float64{{math.NaN()}}, Prices: []float64{0.1}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
		if _, err := NewOptimized().Plan(in); err == nil {
			t.Errorf("case %d: planner accepted invalid input", i)
		}
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	sys := oneDCSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{50}}, Prices: []float64{0.1}}
	plan := mustPlan(t, NewOptimized(), in)

	overDispatch := mustPlan(t, NewOptimized(), in)
	overDispatch.Rate[0][0][0][0] = 100
	if Verify(in, overDispatch, 1e-6) == nil {
		t.Fatal("Verify missed arrival budget violation")
	}

	overShare := mustPlan(t, NewOptimized(), in)
	overShare.Phi[0][0][0] = 1.5
	if Verify(in, overShare, 1e-6) == nil {
		t.Fatal("Verify missed share violation")
	}

	tooSlow := mustPlan(t, NewOptimized(), in)
	tooSlow.Phi[0][0][0] = 0.26 // 26 req/s per server < load/2 + 1/D
	if Verify(in, tooSlow, 1e-6) == nil {
		t.Fatal("Verify missed deadline violation")
	}

	overOn := mustPlan(t, NewOptimized(), in)
	overOn.ServersOn[0] = 99
	if Verify(in, overOn, 1e-6) == nil {
		t.Fatal("Verify missed server count violation")
	}
	_ = plan
}

func TestObjectiveIncludesSlotLength(t *testing.T) {
	sys := oneDCSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{50}}, Prices: []float64{0.1}}
	p1 := mustPlan(t, NewOptimized(), in)
	sys.SlotHours = 2
	p2 := mustPlan(t, NewOptimized(), in)
	if math.Abs(p2.Objective-2*p1.Objective) > 1e-6 {
		t.Fatalf("doubling T should double profit: %g vs %g", p1.Objective, p2.Objective)
	}
}

// randomSystem builds a random but valid multi-type topology.
func randomSystem(rng *rand.Rand) (*datacenter.System, *Input) {
	K := 1 + rng.Intn(3)
	S := 1 + rng.Intn(3)
	L := 1 + rng.Intn(3)
	sys := &datacenter.System{}
	for k := 0; k < K; k++ {
		n := 1 + rng.Intn(3)
		levels := make([]tuf.Level, n)
		d, u := 0.0, 20+rng.Float64()*20
		for q := 0; q < n; q++ {
			d += 0.05 + rng.Float64()*0.5
			levels[q] = tuf.Level{Utility: u, Deadline: d}
			u *= 0.3 + rng.Float64()*0.4
		}
		sys.Classes = append(sys.Classes, datacenter.RequestClass{
			Name: "k", TUF: tuf.MustNew(levels), TransferCostPerMile: rng.Float64() * 0.002,
		})
	}
	for s := 0; s < S; s++ {
		dist := make([]float64, L)
		for l := range dist {
			dist[l] = 50 + rng.Float64()*2000
		}
		sys.FrontEnds = append(sys.FrontEnds, datacenter.FrontEnd{Name: "fe", DistanceMiles: dist})
	}
	for l := 0; l < L; l++ {
		mu := make([]float64, K)
		en := make([]float64, K)
		for k := range mu {
			mu[k] = 80 + rng.Float64()*120
			en[k] = rng.Float64() * 3
		}
		sys.Centers = append(sys.Centers, datacenter.DataCenter{
			Name: "dc", Servers: 1 + rng.Intn(6), Capacity: 0.5 + rng.Float64()*1.5,
			ServiceRate: mu, EnergyPerRequest: en,
		})
	}
	arr := make([][]float64, S)
	for s := range arr {
		arr[s] = make([]float64, K)
		for k := range arr[s] {
			arr[s][k] = rng.Float64() * 300
		}
	}
	prices := make([]float64, L)
	for l := range prices {
		prices[l] = 0.03 + rng.Float64()*2
	}
	return sys, &Input{Sys: sys, Arrivals: arr, Prices: prices}
}

// Property: on random systems the optimized plan always verifies, never
// loses money, and never out-serves the offered load.
func TestOptimizedRandomSystemsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys, in := randomSystem(rng)
		plan, err := NewOptimized().Plan(in)
		if err != nil {
			return false
		}
		if err := Verify(in, plan, 1e-5); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if plan.Objective < -1e-6 {
			return false
		}
		for k := 0; k < sys.K(); k++ {
			if plan.Served(k) > in.Offered(k)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Optimized dominates the greedy single-level commitment — its
// subset search is seeded with exactly that solution, so this must hold
// on every input.
func TestOptimizedDominatesGreedyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, in := randomSystem(rng)
		opt, err := NewOptimized().Plan(in)
		if err != nil {
			return false
		}
		lsp := NewLevelSearch()
		lsp.Strategy = Greedy
		ls, err := lsp.Plan(in)
		if err != nil {
			return false
		}
		return opt.Objective >= ls.Objective-1e-5*math.Abs(ls.Objective)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		Auto: "auto", Exhaustive: "exhaustive", Greedy: "greedy",
		BranchBound: "branch-and-bound", Strategy(9): "Strategy(9)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d: got %q want %q", int(s), got, w)
		}
	}
}
