package loadgen

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"profitlb/internal/baseline"
	"profitlb/internal/cluster"
	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/dispatch"
	"profitlb/internal/exp"
	"profitlb/internal/fault"
	"profitlb/internal/market"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

// queueConfig is a two-center day whose plans sit on their level
// deadlines, so the settlement's queues show deadline misses in earnest.
func queueConfig(slots int) sim.Config {
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
	return sim.Config{
		Sys:    sys,
		Traces: []*workload.Trace{t1, t2},
		Prices: []*market.PriceTrace{market.Houston(), market.Atlanta()},
		Slots:  slots,
	}
}

// realize replays cfg's window on a fleet of one — the root facade's
// SimulateRequests — with service times at coefficient of variation cv.
func realize(t *testing.T, cfg sim.Config, p core.Planner, seed int64, cv float64) *Report {
	t.Helper()
	src, err := sim.NewInputSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dispatch.Config{Seed: uint64(seed)}
	d := &dispatch.Driver{Gateway: dispatch.NewGateway(cfg.Sys, dcfg, nil), Planner: p, Source: src}
	f, err := cluster.NewFleet(cfg.Sys, dcfg, cluster.Config{}, d, cfg.Faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplayer(Config{Seed: seed, StartSlot: cfg.StartSlot, Slots: cfg.Slots}, f, src)
	if err != nil {
		t.Fatal(err)
	}
	rp.cv = cv
	rep, err := rp.run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// thin returns a copy of the configuration with every trace (and plan
// trace) scaled by f, for keeping request counts tractable in tests
// (thinning a queueing system changes its delays: use it to bound
// runtime, not to extrapolate dollars).
func thin(cfg sim.Config, f float64) sim.Config {
	scale := func(traces []*workload.Trace) []*workload.Trace {
		if traces == nil {
			return nil
		}
		out := make([]*workload.Trace, len(traces))
		for i, tr := range traces {
			cp := &workload.Trace{Name: tr.Name, Rates: make([][]float64, tr.Slots())}
			for s := range cp.Rates {
				cp.Rates[s] = append([]float64(nil), tr.Rates[s]...)
			}
			out[i] = cp.Scale(f)
		}
		return out
	}
	cfg.Traces = scale(cfg.Traces)
	cfg.PlanTraces = scale(cfg.PlanTraces)
	return cfg
}

func TestThin(t *testing.T) {
	cfg := queueConfig(2)
	th := thin(cfg, 0.1)
	for s := 0; s < th.Traces[0].Slots(); s++ {
		for k := 0; k < 2; k++ {
			want := cfg.Traces[0].At(s, k) * 0.1
			if math.Abs(th.Traces[0].At(s, k)-want) > 1e-9 {
				t.Fatal("thinning wrong")
			}
		}
	}
	if cfg.Traces[0].At(0, 0) == th.Traces[0].At(0, 0) {
		t.Fatal("thin aliases the original")
	}
	realize(t, th, core.NewOptimized(), 99, 0)
}

func TestRunRealizesPlans(t *testing.T) {
	rep := realize(t, queueConfig(4), core.NewOptimized(), 99, 0)
	if len(rep.Slots) != 4 {
		t.Fatalf("slots %d", len(rep.Slots))
	}
	for i, sr := range rep.Slots {
		if sr.Classes[0].Served == 0 && sr.Classes[1].Served == 0 {
			t.Fatalf("slot %d served nothing", i)
		}
		if math.Abs(sr.NetProfit-(sr.Revenue-sr.EnergyCost-sr.TransferCost)) > 1e-6 {
			t.Fatalf("slot %d: inconsistent realized accounting", i)
		}
		var served int64
		for k, cs := range sr.Classes {
			served += int64(cs.Served)
			if cs.MeanDelay < 0 || cs.MaxDelay < cs.MeanDelay {
				t.Fatalf("slot %d class %d: delays mean %g max %g", i, k, cs.MeanDelay, cs.MaxDelay)
			}
			if cs.DeadlineMisses > cs.Served {
				t.Fatalf("slot %d class %d: more misses than requests", i, k)
			}
		}
		if served != sr.Admitted {
			t.Fatalf("slot %d: settled %d of %d admitted requests", i, served, sr.Admitted)
		}
	}
}

func TestDeterministicInSeed(t *testing.T) {
	a := realize(t, queueConfig(2), core.NewOptimized(), 99, 0)
	b := realize(t, queueConfig(2), core.NewOptimized(), 99, 0)
	if a.TotalNetProfit() != b.TotalNetProfit() {
		t.Fatal("same seed, different realization")
	}
}

// TestRunErrors: a replay with no planner to plan its slots, or no slots,
// is refused.
func TestRunErrors(t *testing.T) {
	cfg := queueConfig(1)
	src, err := sim.NewInputSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dispatch.Config{}
	d := &dispatch.Driver{Gateway: dispatch.NewGateway(cfg.Sys, dcfg, nil), Source: src}
	f, err := cluster.NewFleet(cfg.Sys, dcfg, cluster.Config{}, d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(f, src, Config{Slots: 1}); err == nil {
		t.Fatal("want an error without a planner")
	}
	if _, err := Run(f, src, Config{}); err == nil {
		t.Fatal("want an error without slots")
	}
}

func TestRealizedTracksPlannedProfit(t *testing.T) {
	// The realized per-request profit differs from the fluid expectation
	// (step TUFs over random delays), but must land in the same ballpark:
	// within 35% over a few busy slots.
	rep := realize(t, queueConfig(6), core.NewOptimized(), 99, 0)
	planned, realized := rep.TotalPlannedProfit(), rep.TotalNetProfit()
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
	cfg := queueConfig(2)
	rep := realize(t, cfg, core.NewOptimized(), 99, 0)
	fluid, err := sim.Run(cfg, core.NewOptimized())
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

func TestMissRateModerate(t *testing.T) {
	// Plans sit on level deadlines, so roughly an exponential tail of
	// requests misses them; the rate must be far from both 0 and 1.
	rep := realize(t, queueConfig(4), core.NewOptimized(), 99, 0)
	for k := 0; k < 2; k++ {
		mr := rep.MissRate(k)
		if mr <= 0.01 || mr >= 0.9 {
			t.Fatalf("type %d miss rate %g implausible", k, mr)
		}
	}
}

func TestMissRateEmptyReport(t *testing.T) {
	r := &Report{Slots: []SlotResult{{Classes: make([]ClassSlot, 1)}, {}}}
	if r.MissRate(0) != 0 {
		t.Fatal("empty miss rate should be 0")
	}
}

func TestRunWithBalancedBaseline(t *testing.T) {
	rep := realize(t, queueConfig(2), baseline.NewBalanced(), 99, 0)
	if rep.TotalNetProfit() <= 0 {
		t.Fatal("balanced realization unprofitable")
	}
}

func TestServiceCVOrdersMissRates(t *testing.T) {
	// The steadier the service distribution, the fewer deadline misses:
	// Erlang-16 < exponential < hyperexponential.
	miss := map[string]float64{}
	for name, cv := range map[string]float64{"det": 0.25, "exp": 1, "hyper": 2.5} {
		rep := realize(t, queueConfig(3), core.NewOptimized(), 99, cv)
		miss[name] = (rep.MissRate(0) + rep.MissRate(1)) / 2
	}
	if !(miss["det"] < miss["exp"] && miss["exp"] < miss["hyper"]) {
		t.Fatalf("miss-rate ordering wrong: %v", miss)
	}
}

func TestServiceCVErlang(t *testing.T) {
	// CV = 0.5 → Erlang-4: between deterministic and exponential.
	rep := realize(t, queueConfig(2), core.NewOptimized(), 99, 0.5)
	repExp := realize(t, queueConfig(2), core.NewOptimized(), 99, 0)
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

// pollaczekKhinchine is the M/G/1 expected sojourn time at arrival rate
// lam < mu, for service at rate mu with coefficient of variation cv:
//
//	W = 1/μ + ρ·(1+CV²) / (2·μ·(1−ρ)),  ρ = λ/μ.
func pollaczekKhinchine(lam, mu, cv float64) float64 {
	rho := lam / mu
	return 1/mu + rho*(1+cv*cv)/(2*mu*(1-rho))
}

// TestSettledQueueMatchesPollaczekKhinchine cross-validates the
// settlement against the analytical M/G/1 formula for several
// service-time distributions: one type on one center's one server, λ = 60
// against μ = 100, over a 4000-unit slot. At CV 1 the formula is the
// paper's Eq. 1, 1/(μ−λ), so that lane is the request-level check of the
// M/M/1 delay model the planner optimizes against.
func TestSettledQueueMatchesPollaczekKhinchine(t *testing.T) {
	lam, mu := 60.0, 100.0
	if pk, eq1 := pollaczekKhinchine(lam, mu, 1), 1/(mu-lam); math.Abs(pk-eq1) > 1e-12*eq1 {
		t.Fatalf("Pollaczek-Khinchine at CV 1 is %g, Eq. 1 gives %g", pk, eq1)
	}
	cfg := sim.Config{
		Sys: &datacenter.System{
			SlotHours: 4000,
			Classes: []datacenter.RequestClass{
				{Name: "q", TUF: tuf.MustNew([]tuf.Level{{Utility: 1, Deadline: 1}})},
			},
			FrontEnds: []datacenter.FrontEnd{{Name: "fe", DistanceMiles: []float64{0}}},
			Centers: []datacenter.DataCenter{
				{Name: "dc", Servers: 1, Capacity: 1, ServiceRate: []float64{mu}, EnergyPerRequest: []float64{1e-6}},
			},
		},
		Traces: []*workload.Trace{{Name: "fe", Rates: [][]float64{{lam}}}},
		Prices: []*market.PriceTrace{{Name: "dc", Prices: []float64{0.05}}},
		Slots:  1,
	}
	for _, cv := range []float64{0.5, 1, 2} {
		rep := realize(t, cfg, core.NewOptimized(), 33, cv)
		cs := rep.Slots[0].Classes[0]
		if cs.Served < 100000 {
			t.Fatalf("cv=%g: only %d requests", cv, cs.Served)
		}
		want := pollaczekKhinchine(lam, mu, cv)
		if math.Abs(cs.MeanDelay-want)/want > 0.08 {
			t.Fatalf("cv=%g: settled %g vs Pollaczek-Khinchine %g", cv, cs.MeanDelay, want)
		}
	}
}

// TestSettledValueMatchesExpected holds the settlement to
// core.Valuation.Expected, the closed form of what the queue pays: one
// type with two levels ($2 by 0.05, $1 by 0.2) on one center's one
// server, λ = 60 against C·μ = 100, at service CV 1. Lindley delays are
// correlated, so the bound is on batch means, a slot each: every slot
// starts with empty queues and draws its own streams, so the batches are
// independent. The empty start is a bias, not noise: the M/M/1 relaxation
// time is τ = 1/(μ(1−√ρ)²) ≈ 0.2, a slot runs 800 time units (~4 000 τ),
// and the transient moves a slot's mean by at most U₁·5τ/T, which the
// test requires to sit inside the bound.
func TestSettledValueMatchesExpected(t *testing.T) {
	const lam, mu, slots, slotLen = 60.0, 100.0, 20, 800.0
	tf := tuf.MustNew([]tuf.Level{{Utility: 2, Deadline: 0.05}, {Utility: 1, Deadline: 0.2}})
	rates := make([][]float64, slots)
	prices := make([]float64, slots)
	for i := range rates {
		rates[i], prices[i] = []float64{lam}, 0.05
	}
	cfg := sim.Config{
		Sys: &datacenter.System{
			SlotHours: slotLen,
			Classes:   []datacenter.RequestClass{{Name: "q", TUF: tf}},
			FrontEnds: []datacenter.FrontEnd{{Name: "fe", DistanceMiles: []float64{0}}},
			Centers: []datacenter.DataCenter{
				{Name: "dc", Servers: 1, Capacity: 1, ServiceRate: []float64{mu}, EnergyPerRequest: []float64{1e-6}},
			},
		},
		Traces: []*workload.Trace{{Name: "fe", Rates: rates}},
		Prices: []*market.PriceTrace{{Name: "dc", Prices: prices}},
		Slots:  slots,
	}
	src, err := sim.NewInputSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view, err := src.View(0) // every slot's input is slot 0's
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewOptimized().Plan(view.Plan)
	if err != nil {
		t.Fatal(err)
	}
	val := core.Value(view.Plan, plan)
	var rate, want, booked float64
	for q := 0; q < tf.NumLevels(); q++ {
		c := val.At(0, q, 0)
		rate += c.Rate
		want += c.Rate * val.Expected(0, q, 0)
		booked += c.Rate * c.Utility
	}
	if rate == 0 {
		t.Fatal("the plan serves nothing")
	}
	want, booked = want/rate, booked/rate

	rep := realize(t, cfg, core.NewOptimized(), 5, 1)
	var sum, sumsq float64
	for _, s := range rep.Slots {
		if s.Classes[0].Served < 20000 {
			t.Fatalf("slot %d: only %d requests", s.Slot, s.Classes[0].Served)
		}
		m := s.Revenue / float64(s.Classes[0].Served)
		sum += m
		sumsq += m * m
	}
	mean := sum / slots
	se := math.Sqrt((sumsq/slots - mean*mean) / (slots - 1))
	bound := 4 * se
	tau := 1 / (mu * math.Pow(1-math.Sqrt(lam/mu), 2))
	if bias := tf.Level(0).Utility * 5 * tau / slotLen; bias > bound {
		t.Fatalf("the empty-queue start (≤ %g) does not sit inside the bound %g: lengthen the slot", bias, bound)
	}
	t.Logf("settled %.5f per request, expected %.5f (ratio %.4f, bound ±%.5f), booked %.5f (expected/booked %.4f)",
		mean, want, mean/want, bound, booked, want/booked)
	if math.Abs(mean-want) > bound {
		t.Fatalf("settled %g per request vs expected %g: off by more than %g", mean, want, bound)
	}
}

// TestRunPlansOnPlanTraces: the replay plans off the same sim.InputSource
// views as the fluid run, so a planner handed half-sized plan traces
// commits the plan the fluid run commits for them — and the realized
// request counts follow that plan, not the actual arrivals.
func TestRunPlansOnPlanTraces(t *testing.T) {
	full := realize(t, queueConfig(3), core.NewOptimized(), 99, 0)
	cfg := queueConfig(3)
	cfg.PlanTraces = thin(cfg, 0.5).Traces
	got := realize(t, cfg, core.NewOptimized(), 99, 0)
	fluid, err := sim.Run(cfg, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range got.Slots {
		if want := fluid.Slots[i].NetProfit; math.Abs(sr.PlannedProfit-want) > 1e-9*math.Abs(want) {
			t.Fatalf("slot %d: the replay committed %.12g, the fluid run on the same plan traces %.12g", i, sr.PlannedProfit, want)
		}
		served := sr.Classes[0].Served + sr.Classes[1].Served
		whole := full.Slots[i].Classes[0].Served + full.Slots[i].Classes[1].Served
		if ratio := float64(served) / float64(whole); ratio < 0.4 || ratio > 0.6 {
			t.Fatalf("slot %d: served %d of the %d a full-view plan serves — the planner did not see the plan traces", i, served, whole)
		}
	}
}

// TestRunDegradesThroughFaultStorm: a center outage and an injected
// planner error run the whole horizon through the resilient chain. The
// outage slot's table routes to the surviving center only, which still
// serves, and the error slot commits the chain's first fallback tier.
func TestRunDegradesThroughFaultStorm(t *testing.T) {
	cfg := queueConfig(4)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.CenterOutage, Center: 1, From: 1, To: 1},
		{Kind: fault.PlannerError, From: 2, To: 2},
	}}
	chain := resilient.Wrap(&fault.Injector{Planner: core.NewOptimized(), Sched: cfg.Faults})
	rep := realize(t, cfg, chain, 99, 0)
	if len(rep.Slots) != 4 {
		t.Fatalf("storm horizon stopped at %d slots", len(rep.Slots))
	}
	var served int
	for k := range rep.Slots[1].Classes {
		served += rep.Slots[1].Classes[k].Served
	}
	if served == 0 {
		t.Fatal("outage slot realized nothing at the surviving center")
	}
	for _, ln := range rep.Slots[1].Lanes {
		if ln.L == 1 {
			t.Fatalf("outage slot routes to the dead center: %+v", ln.Lane)
		}
	}
	if s := rep.Slots[2]; !s.Degraded || s.Tier != chain.Tiers[1].Name() {
		t.Fatalf("slot 2: degraded=%v tier=%q, want fallback tier %q", s.Degraded, s.Tier, chain.Tiers[1].Name())
	}
	if rep.Slots[0].Degraded || rep.Slots[3].Degraded {
		t.Fatal("healthy slots marked degraded")
	}
}

// TestServiceRatesAreTheCommittedShares: the rate each commodity's queue
// is served at is what every lane of the commodity carries in the compiled
// table, (φ/Σφ)·C·μ_k of the committed plan — φ·C·μ_k on a center with
// no slack — on Section VII's busiest slot, and on the same slot at half
// the capacity, where the centers fill up and commodities have no
// headroom.
func TestServiceRatesAreTheCommittedShares(t *testing.T) {
	var checked, flat int
	for _, setup := range []*exp.TwoLevelSetup{exp.NewTwoLevelSetup(), exp.NewTwoLevelSetupScaled(0.5)} {
		src, err := sim.NewInputSource(setup.Config())
		if err != nil {
			t.Fatal(err)
		}
		view, err := src.View(15)
		if err != nil {
			t.Fatal(err)
		}
		in := view.Plan
		plan, err := core.NewOptimized().Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		table, err := dispatch.Compile(in, plan, dispatch.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sys := in.Sys
		levels := levelOffsets(sys)
		service := make([]float64, levels[sys.K()]*sys.L())
		lanes := make([]int, len(service))
		headroom := make([]bool, len(service))
		for _, ln := range table.Lanes {
			c := (levels[ln.K]+ln.Q)*sys.L() + ln.L
			if lanes[c] > 0 && ln.Service != service[c] {
				t.Fatalf("scale %g: commodity %d's lanes carry service rates %.17g and %.17g", setup.Scale, c, service[c], ln.Service)
			}
			service[c] = ln.Service
			lanes[c]++
			headroom[c] = headroom[c] || ln.MaxRate > ln.Rate
		}
		for l := range sys.Centers {
			var sumPhi float64
			for k := range plan.Phi[l] {
				for _, phi := range plan.Phi[l][k] {
					sumPhi += phi
				}
			}
			dc := &sys.Centers[l]
			for k := range sys.Classes {
				for q := range plan.Phi[l][k] {
					c := (levels[k]+q)*sys.L() + l
					if plan.CenterRate(k, q, l) <= core.RateEps {
						if lanes[c] > 0 {
							t.Fatalf("scale %g: center %d commodity (%d, %d) carries no traffic but has %d lanes", setup.Scale, l, k, q, lanes[c])
						}
						continue
					}
					if lanes[c] == 0 {
						t.Fatalf("scale %g: center %d commodity (%d, %d) carries traffic but has no lane", setup.Scale, l, k, q)
					}
					want := plan.Phi[l][k][q] / min(sumPhi, 1) * dc.Capacity * dc.ServiceRate[k]
					if got := service[c]; math.Abs(got-want) > 1e-12*want {
						t.Fatalf("scale %g: center %d commodity (%d, %d): service rate %.17g, (φ/Σφ)·C·μ %.17g", setup.Scale, l, k, q, got, want)
					}
					checked++
					if !headroom[c] {
						flat++
					}
				}
			}
		}
	}
	if checked == 0 || flat == 0 {
		t.Fatalf("checked %d commodities, %d of them with headroom 1: the test is vacuous", checked, flat)
	}
	t.Logf("checked %d commodities, %d of them with headroom 1", checked, flat)
}

// TestIdleDrawBilledAtTruePrices: the powered-on servers' idle draw is
// billed like every request's energy, at the slot's true prices, not at
// the prices the plan (and its table) was made at. A blacked-out price
// spike hides the true price from the planner for one slot.
func TestIdleDrawBilledAtTruePrices(t *testing.T) {
	cfg := thin(queueConfig(3), 0.1)
	sys := cfg.Sys.Clone()
	for l := range sys.Centers {
		sys.Centers[l].IdleEnergyPerServer = 0.4
	}
	cfg.Sys = sys
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.PriceSpike, From: 1, To: 1, Center: 0, Factor: 5},
		{Kind: fault.PriceBlackout, From: 1, To: 1, Center: 0},
	}}
	cfg.KeepPlans = true
	fluid, err := sim.Run(cfg, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	rep := realize(t, cfg, core.NewOptimized(), 99, 0)
	src, err := sim.NewInputSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range rep.Slots {
		view, err := src.View(sr.Slot)
		if err != nil {
			t.Fatal(err)
		}
		prices, plan := view.Actual.Prices, fluid.Slots[i].Plan
		if sr.PlannedProfit != plan.Objective {
			t.Fatalf("slot %d: replayed plan's objective %g, the fluid run's %g", i, sr.PlannedProfit, plan.Objective)
		}
		if i == 1 && prices[0] == view.Plan.Prices[0] {
			t.Fatal("slot 1: the planner sees the true price; the fault is missing")
		}
		var want float64
		for _, ln := range sr.Lanes {
			want += float64(ln.Admitted) * sys.EnergyCost(ln.K, ln.L, prices[ln.L])
		}
		for l, n := range plan.ServersOn {
			want += sys.IdleCost(l, prices[l]) * float64(n)
		}
		if math.Abs(sr.EnergyCost-want) > 1e-9*want {
			t.Errorf("slot %d: settled energy $%.6f, at the true prices $%.6f", i, sr.EnergyCost, want)
		}
	}
}

// TestStaleReplicaAdmissionsKeepTheirLanes: a partitioned replica serves
// its older table, whose lane indices name other lanes of the slot's
// table. Admissions are attributed by what the gateway decided — type,
// level, front-end, center — so every lane of the slot's table counts
// exactly the admissions both gateways made on it, and the stale
// replica's admissions at the center the slot lost count in Admitted but
// in no lane.
func TestStaleReplicaAdmissionsKeepTheirLanes(t *testing.T) {
	cfg := testSimConfig(2)
	// Slot 0 is planned on the forecast but offers nothing, so each
	// gateway's lane tallies at the end are its slot-1 admissions alone.
	cfg.PlanTraces = []*workload.Trace{
		{Name: "east", Rates: [][]float64{{18000, 1500}, {18000, 1500}}},
		{Name: "west", Rates: [][]float64{{15000, 1100}, {15000, 1100}}},
	}
	cfg.Traces = []*workload.Trace{
		{Name: "east", Rates: [][]float64{{0, 0}, {18000, 1500}}},
		{Name: "west", Rates: [][]float64{{0, 0}, {15000, 1100}}},
	}
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.CenterOutage, Center: 1, From: 1, To: 1},
		{Kind: fault.ReplicaPartition, Replica: 1, From: 1, To: 1},
	}}
	f, src := fleetHarness(t, cfg, 2, cfg.Faults, nil)
	rep, err := Run(f, src, Config{Seed: 3, Slots: cfg.Slots})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Slots[1]
	if s.Stale != 1 {
		t.Fatalf("slot 1 has %d stale replicas, want the partitioned one", s.Stale)
	}
	type key struct{ k, q, s, l int }
	truth := map[key]int64{}
	for _, r := range f.Replicas {
		for _, lc := range r.Gateway().Stats(2 * cfg.Sys.Slot()).Lanes {
			truth[key{lc.K, lc.Q, lc.S, lc.L}] += lc.Admitted
		}
	}
	var onLanes int64
	for _, ln := range s.Lanes {
		if ln.L != 0 {
			t.Fatalf("the outage slot's table routes to the dead center: %+v", ln.Lane)
		}
		at := key{ln.K, ln.Q, ln.S, ln.L}
		if ln.Admitted != truth[at] {
			t.Fatalf("lane %+v counts %d admissions, the gateways made %d on it", at, ln.Admitted, truth[at])
		}
		onLanes += ln.Admitted
		delete(truth, at)
	}
	var elsewhere int64
	for at, n := range truth {
		if at.l != 1 && n != 0 {
			t.Fatalf("%d admissions on %+v, a lane of neither the slot's table nor the dead center", n, at)
		}
		elsewhere += n
	}
	if elsewhere == 0 {
		t.Fatal("the stale replica admitted nothing at the dead center: the test is vacuous")
	}
	if s.Admitted != onLanes+elsewhere {
		t.Fatalf("slot 1 admitted %d = %d on the table's lanes + %d at the dead center, got %d",
			onLanes+elsewhere, onLanes, elsewhere, s.Admitted)
	}
}

// TestRealizedGolden pins what the settlement realizes — served counts,
// deadline misses and dollars per slot — on the Section VII window thinned
// to a quarter of its load, under CV = 0.5 (Erlang-4), exponential and
// CV = 2 (hyperexponential) service. Every figure follows from the
// arrival, spray and settlement draws of the replay's seed, so the file
// changes only if one of those streams or the queue model does.
func TestRealizedGolden(t *testing.T) {
	var got bytes.Buffer
	for _, cv := range []float64{0.5, 1, 2} {
		rep := realize(t, thin(exp.NewTwoLevelSetup().Config(), 0.25), core.NewOptimized(), 4242, cv)
		fmt.Fprintf(&got, "# service CV %g\n", cv)
		for _, sr := range rep.Slots {
			fmt.Fprintf(&got, "slot %d", sr.Slot)
			for _, cs := range sr.Classes {
				fmt.Fprintf(&got, " served=%d misses=%d", cs.Served, cs.DeadlineMisses)
			}
			fmt.Fprintf(&got, " realized=%.17g\n", sr.NetProfit)
		}
	}
	path := filepath.Join("testdata", "realized.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update at the reference commit)", err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("realized run drifted from %s:\n%s", path, got.Bytes())
	}
}
