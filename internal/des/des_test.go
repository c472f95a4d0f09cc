package des

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/fault"
	"profitlb/internal/market"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

func testConfig(slots int) Config {
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "a", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.01}}), TransferCostPerMile: 0.0002},
			{Name: "b", TUF: tuf.MustNew([]tuf.Level{{Utility: 20, Deadline: 0.006}, {Utility: 8, Deadline: 0.05}}), TransferCostPerMile: 0.0003},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "fe1", DistanceMiles: []float64{200, 1100}},
			{Name: "fe2", DistanceMiles: []float64{900, 250}},
		},
		Centers: []datacenter.DataCenter{
			{Name: "dc1", Servers: 5, Capacity: 1, ServiceRate: []float64{3000, 2200}, EnergyPerRequest: []float64{0.002, 0.003}},
			{Name: "dc2", Servers: 5, Capacity: 1, ServiceRate: []float64{2800, 2400}, EnergyPerRequest: []float64{0.0022, 0.0028}},
		},
	}
	t1 := workload.ShiftTypes("fe1", workload.WorldCupLike(workload.WorldCupConfig{Seed: 4, Base: 3000}), 2, 5)
	t2 := workload.ShiftTypes("fe2", workload.WorldCupLike(workload.WorldCupConfig{Seed: 5, Base: 2500}), 2, 5)
	return Config{
		Sim: sim.Config{
			Sys:    sys,
			Traces: []*workload.Trace{t1, t2},
			Prices: []*market.PriceTrace{market.Houston(), market.Atlanta()},
			Slots:  slots,
		},
		Planner: core.NewOptimized(),
		Seed:    99,
	}
}

func TestRunRealizesPlans(t *testing.T) {
	cfg := testConfig(4)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != 4 {
		t.Fatalf("slots %d", len(rep.Slots))
	}
	for i, sr := range rep.Slots {
		if sr.Classes[0].Served == 0 && sr.Classes[1].Served == 0 {
			t.Fatalf("slot %d served nothing", i)
		}
		if math.Abs(sr.RealizedNetProfit-(sr.Revenue-sr.EnergyCost-sr.TransferCost)) > 1e-6 {
			t.Fatalf("slot %d: inconsistent realized accounting", i)
		}
		for k, cs := range sr.Classes {
			if cs.MeanDelay < 0 || cs.MaxDelay < cs.MeanDelay {
				t.Fatalf("slot %d class %d: delays mean %g max %g", i, k, cs.MeanDelay, cs.MaxDelay)
			}
			if cs.DeadlineMisses > cs.Served {
				t.Fatalf("slot %d class %d: more misses than requests", i, k)
			}
		}
	}
}

func TestRealizedTracksPlannedProfit(t *testing.T) {
	// The realized per-request profit differs from the fluid expectation
	// (step TUFs over random delays), but must land in the same ballpark:
	// within 35% over a few busy slots.
	cfg := testConfig(6)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planned, realized := rep.TotalPlanned(), rep.TotalRealized()
	if planned <= 0 || realized <= 0 {
		t.Fatalf("planned %g realized %g", planned, realized)
	}
	if r := realized / planned; r < 0.65 || r > 1.6 {
		t.Fatalf("realized/planned = %g, outside the plausible band", r)
	}
}

func TestServedCountsNearExpectation(t *testing.T) {
	// Realized arrivals are Poisson with the planned rate; totals over a
	// slot must match λ·T within a few percent at these volumes.
	cfg := testConfig(2)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fluid, err := sim.Run(cfg.Sim, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Slots {
		for k := 0; k < 2; k++ {
			want := fluid.Slots[i].ServedByType[k]
			got := float64(rep.Slots[i].Classes[k].Served)
			if want == 0 {
				continue
			}
			if math.Abs(got-want)/want > 0.08 {
				t.Fatalf("slot %d type %d: realized %g vs fluid %g", i, k, got, want)
			}
		}
	}
}

func TestDeterministicInSeed(t *testing.T) {
	a, err := Run(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalRealized() != b.TotalRealized() {
		t.Fatal("same seed, different realization")
	}
}

func TestMissRateModerate(t *testing.T) {
	// Plans sit on level deadlines, so roughly an exponential tail of
	// requests misses them; the rate must be far from both 0 and 1.
	rep, err := Run(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		mr := rep.MissRate(k)
		if mr <= 0.01 || mr >= 0.9 {
			t.Fatalf("type %d miss rate %g implausible", k, mr)
		}
	}
}

func TestRunWithBalancedBaseline(t *testing.T) {
	cfg := testConfig(2)
	cfg.Planner = baseline.NewBalanced()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planner != "balanced" {
		t.Fatalf("planner %q", rep.Planner)
	}
	if rep.TotalRealized() <= 0 {
		t.Fatal("balanced realization unprofitable")
	}
}

func TestRunErrors(t *testing.T) {
	cfg := testConfig(1)
	cfg.Planner = nil
	if _, err := Run(cfg); err == nil {
		t.Fatal("want error without planner")
	}
	cfg = testConfig(1)
	cfg.Sim.Slots = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("want config validation error")
	}
}

func TestThin(t *testing.T) {
	cfg := testConfig(2)
	thin := Thin(cfg, 0.1)
	for s := 0; s < thin.Sim.Traces[0].Slots(); s++ {
		for k := 0; k < 2; k++ {
			want := cfg.Sim.Traces[0].At(s, k) * 0.1
			if math.Abs(thin.Sim.Traces[0].At(s, k)-want) > 1e-9 {
				t.Fatal("thinning wrong")
			}
		}
	}
	// Original untouched.
	if cfg.Sim.Traces[0].At(0, 0) == thin.Sim.Traces[0].At(0, 0) {
		t.Fatal("thin aliases original")
	}
	if _, err := Run(thin); err != nil {
		t.Fatal(err)
	}
}

func TestMissRateEmptyReport(t *testing.T) {
	r := &Report{Slots: []SlotResult{{Classes: make([]ClassSlot, 1)}}}
	if r.MissRate(0) != 0 {
		t.Fatal("empty miss rate should be 0")
	}
}

func TestServiceCVOrdersMissRates(t *testing.T) {
	// The steadier the service distribution, the fewer deadline misses:
	// Erlang-16 < exponential < hyperexponential.
	miss := map[string]float64{}
	for name, cv := range map[string]float64{"det": 0.25, "exp": 1, "hyper": 2.5} {
		cfg := testConfig(3)
		cfg.ServiceCV = cv
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		miss[name] = (rep.MissRate(0) + rep.MissRate(1)) / 2
	}
	if !(miss["det"] < miss["exp"] && miss["exp"] < miss["hyper"]) {
		t.Fatalf("miss-rate ordering wrong: %v", miss)
	}
}

func TestServiceCVErlang(t *testing.T) {
	// CV = 0.5 → Erlang-4: between deterministic and exponential.
	cfg := testConfig(2)
	cfg.ServiceCV = 0.5
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgExp := testConfig(2)
	repExp, err := Run(cfgExp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissRate(0) >= repExp.MissRate(0) {
		t.Fatalf("Erlang miss %g not below exponential %g", rep.MissRate(0), repExp.MissRate(0))
	}
}

func TestServiceSamplerMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, cv := range []float64{0, 0.5, 1, 2} {
		sample := serviceSampler(cv)
		const n = 200000
		mu := 50.0
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := sample(rng, mu)
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		if math.Abs(mean-1/mu) > 0.03/mu {
			t.Fatalf("cv=%g: mean %g, want %g", cv, mean, 1/mu)
		}
		if cv <= 0 {
			continue
		}
		variance := sumsq/n - mean*mean
		wantSD := cv / mu
		gotSD := math.Sqrt(math.Max(variance, 0))
		if math.Abs(gotSD-wantSD) > 0.05/mu+0.05*wantSD {
			t.Fatalf("cv=%g: sd %g, want %g", cv, gotSD, wantSD)
		}
	}
}

func TestServiceSamplerDefaultExponential(t *testing.T) {
	// The zero value must be exponential: mean 1/mu AND sd ≈ 1/mu.
	rng := rand.New(rand.NewSource(12))
	sample := serviceSampler(0)
	const n = 100000
	mu := 20.0
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := sample(rng, mu)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-1/mu) > 0.03/mu || math.Abs(sd-1/mu) > 0.05/mu {
		t.Fatalf("default sampler mean %g sd %g, want both ≈ %g", mean, sd, 1/mu)
	}
}

// failingPlanner errors on every slot at or past `at`.
type failingPlanner struct {
	inner core.Planner
	at    int
}

func (f *failingPlanner) Name() string { return "failing" }
func (f *failingPlanner) Plan(in *core.Input) (*core.Plan, error) {
	if in.Slot >= f.at {
		return nil, errWontPlan
	}
	return f.inner.Plan(in)
}

var errWontPlan = errors.New("des test: scripted planner failure")

func TestRunAbortKeepsPartialReport(t *testing.T) {
	cfg := testConfig(4)
	cfg.Planner = &failingPlanner{inner: core.NewOptimized(), at: 2}
	rep, err := Run(cfg)
	if err == nil {
		t.Fatal("failing planner did not abort")
	}
	if rep == nil || len(rep.Slots) != 2 {
		t.Fatalf("partial report lost: %+v", rep)
	}
}

func TestRunDegradesThroughFaultStorm(t *testing.T) {
	cfg := testConfig(4)
	cfg.Sim.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.CenterOutage, Center: 1, From: 1, To: 1},
		{Kind: fault.PlannerError, From: 2, To: 2},
	}}
	cfg.Sim.DegradeOnFailure = true
	cfg.Planner = resilient.Wrap(&fault.Injector{Planner: core.NewOptimized(), Sched: cfg.Sim.Faults})
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != 4 {
		t.Fatalf("storm horizon stopped at %d slots", len(rep.Slots))
	}
	// Outage slot: the surviving center still realizes traffic and the
	// report names the active fault.
	var served int
	for k := range rep.Slots[1].Classes {
		served += rep.Slots[1].Classes[k].Served
	}
	if served == 0 {
		t.Fatal("outage slot realized nothing at the surviving center")
	}
	if len(rep.Slots[1].FaultsActive) == 0 || !strings.Contains(rep.Slots[1].FaultsActive[0], "center-outage") {
		t.Fatalf("outage slot faults = %v", rep.Slots[1].FaultsActive)
	}
	// Injected-error slot: the fallback chain fired and the report says so.
	if !rep.Slots[2].Degraded || rep.Slots[2].FallbackTier != 1 {
		t.Fatalf("slot 2: degraded=%v tier=%d, want fallback tier 1",
			rep.Slots[2].Degraded, rep.Slots[2].FallbackTier)
	}
	if rep.Slots[0].Degraded || rep.Slots[3].Degraded {
		t.Fatal("healthy slots marked degraded")
	}
}

// pollaczekKhinchine is the M/G/1 expected sojourn time at arrival rate
// lam < mu, for service at rate mu with coefficient of variation cv:
//
//	W = 1/μ + ρ·(1+CV²) / (2·μ·(1−ρ)),  ρ = λ/μ.
func pollaczekKhinchine(lam, mu, cv float64) float64 {
	rho := lam / mu
	return 1/mu + rho*(1+cv*cv)/(2*mu*(1-rho))
}

// TestSimulateQueueMatchesPollaczekKhinchine cross-validates the
// request-level simulator against the analytical M/G/1 formula for
// several service-time distributions. At CV 1 the formula is the paper's
// Eq. 1, 1/(μ−λ), so that lane is the request-level check of the M/M/1
// delay model the planner optimizes against.
func TestSimulateQueueMatchesPollaczekKhinchine(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	lam, mu := 60.0, 100.0
	if pk, eq1 := pollaczekKhinchine(lam, mu, 1), 1/(mu-lam); math.Abs(pk-eq1) > 1e-12*eq1 {
		t.Fatalf("Pollaczek-Khinchine at CV 1 is %g, Eq. 1 gives %g", pk, eq1)
	}
	utility := func(float64) float64 { return 0 }
	for _, cv := range []float64{0.5, 1, 2} {
		sample := serviceSampler(cv)
		served, _, stats := simulateQueue(rng, sample, lam, mu, 4000, utility, 1)
		if served < 100000 {
			t.Fatalf("cv=%g: only %d requests", cv, served)
		}
		mean := stats.sumDelay / float64(served)
		want := pollaczekKhinchine(lam, mu, cv)
		if math.Abs(mean-want)/want > 0.08 {
			t.Fatalf("cv=%g: simulated %g vs Pollaczek-Khinchine %g", cv, mean, want)
		}
	}
}

// TestRunPlansOnPlanTraces: des takes its inputs from the same
// sim.InputSource views as the fluid run, so a planner handed half-sized
// plan traces commits the plan the fluid run commits for them — and the
// realized request counts follow that plan, not the actual arrivals.
func TestRunPlansOnPlanTraces(t *testing.T) {
	full := testConfig(3)
	rep, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(3)
	cfg.Sim.PlanTraces = Thin(cfg, 0.5).Sim.Traces
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fluid, err := sim.Run(cfg.Sim, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range got.Slots {
		if want := fluid.Slots[i].NetProfit; math.Abs(sr.PlannedNetProfit-want) > 1e-9*math.Abs(want) {
			t.Fatalf("slot %d: des committed %.12g, the fluid run on the same plan traces %.12g", i, sr.PlannedNetProfit, want)
		}
		served := sr.Classes[0].Served + sr.Classes[1].Served
		whole := rep.Slots[i].Classes[0].Served + rep.Slots[i].Classes[1].Served
		if ratio := float64(served) / float64(whole); ratio < 0.4 || ratio > 0.6 {
			t.Fatalf("slot %d: served %d of the %d a full-view plan serves — the planner did not see the plan traces", i, served, whole)
		}
	}
}
