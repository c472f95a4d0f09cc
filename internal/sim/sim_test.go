package sim

import (
	"math"
	"strings"
	"testing"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/market"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

func testSystem() *datacenter.System {
	return &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "r1", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.2}}), TransferCostPerMile: 0.0005},
			{Name: "r2", TUF: tuf.MustNew([]tuf.Level{{Utility: 20, Deadline: 0.4}, {Utility: 8, Deadline: 1.2}}), TransferCostPerMile: 0.0008},
		},
		FrontEnds: []datacenter.FrontEnd{
			{Name: "fe1", DistanceMiles: []float64{150, 1100}},
			{Name: "fe2", DistanceMiles: []float64{800, 200}},
		},
		Centers: []datacenter.DataCenter{
			{Name: "dc1", Servers: 5, Capacity: 1, ServiceRate: []float64{120, 100}, EnergyPerRequest: []float64{1.0, 1.5}},
			{Name: "dc2", Servers: 5, Capacity: 1, ServiceRate: []float64{130, 90}, EnergyPerRequest: []float64{0.9, 1.6}},
		},
	}
}

func testConfig(slots int) Config {
	base1 := workload.WorldCupLike(workload.WorldCupConfig{Seed: 1, Base: 120})
	base2 := workload.WorldCupLike(workload.WorldCupConfig{Seed: 2, Base: 90})
	return Config{
		Sys: testSystem(),
		Traces: []*workload.Trace{
			workload.ShiftTypes("fe1", base1, 2, 3),
			workload.ShiftTypes("fe2", base2, 2, 3),
		},
		Prices: []*market.PriceTrace{market.Houston(), market.MountainView()},
		Slots:  slots,
	}
}

func TestRunProducesConsistentAccounting(t *testing.T) {
	rep, err := Run(testConfig(6), core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != 6 {
		t.Fatalf("slots = %d", len(rep.Slots))
	}
	for i, sr := range rep.Slots {
		if sr.NetProfit > sr.Revenue {
			t.Fatalf("slot %d: net %g above revenue %g", i, sr.NetProfit, sr.Revenue)
		}
		if math.Abs(sr.NetProfit-(sr.Revenue-sr.EnergyCost-sr.TransferCost)) > 1e-9 {
			t.Fatalf("slot %d: inconsistent net profit", i)
		}
		if sr.Served() > sr.Offered()+1e-6 {
			t.Fatalf("slot %d: served %g > offered %g", i, sr.Served(), sr.Offered())
		}
		if sr.EnergyCost < 0 || sr.TransferCost < 0 {
			t.Fatalf("slot %d: negative costs", i)
		}
	}
}

func TestOptimizedBeatsBalancedOverADay(t *testing.T) {
	cfg := testConfig(24)
	reports, err := Compare(cfg, core.NewOptimized(), baseline.NewBalanced())
	if err != nil {
		t.Fatal(err)
	}
	opt, bal := reports[0], reports[1]
	if opt.TotalNetProfit() < bal.TotalNetProfit() {
		t.Fatalf("optimized %g below balanced %g over a day",
			opt.TotalNetProfit(), bal.TotalNetProfit())
	}
	// Per-slot too: the planner optimizes each slot independently.
	for i := range opt.Slots {
		if opt.Slots[i].NetProfit < bal.Slots[i].NetProfit-1e-6 {
			t.Fatalf("slot %d: optimized %g below balanced %g", i,
				opt.Slots[i].NetProfit, bal.Slots[i].NetProfit)
		}
	}
}

func TestStartSlotOffsets(t *testing.T) {
	cfg := testConfig(2)
	cfg.StartSlot = 14
	rep, err := Run(cfg, baseline.NewBalanced())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slots[0].Slot != 14 || rep.Slots[1].Slot != 15 {
		t.Fatalf("slots = %d, %d; want 14, 15", rep.Slots[0].Slot, rep.Slots[1].Slot)
	}
	if rep.Slots[0].Prices[0] != market.Houston().At(14) {
		t.Fatal("price not taken from the offset slot")
	}
}

func TestCompletionRateAndSeries(t *testing.T) {
	cfg := testConfig(5)
	rep, err := Run(cfg, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		cr := rep.CompletionRate(k)
		if cr < 0 || cr > 1+1e-9 {
			t.Fatalf("completion rate %g out of range", cr)
		}
	}
	series := rep.NetProfitSeries()
	if len(series) != 5 {
		t.Fatalf("series length %d", len(series))
	}
	cs := rep.CenterSeries(0, 1)
	if len(cs) != 5 {
		t.Fatalf("center series length %d", len(cs))
	}
	var total float64
	for i := range rep.Slots {
		for l := 0; l < 2; l++ {
			total += rep.Slots[i].CenterServed[0][l]
		}
	}
	var served float64
	for i := range rep.Slots {
		served += rep.Slots[i].ServedByType[0]
	}
	if math.Abs(total-served) > 1e-6 {
		t.Fatalf("center series sum %g != served %g", total, served)
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(3)
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no system", func(c *Config) { c.Sys = nil }, "no system"},
		{"zero slots", func(c *Config) { c.Slots = 0 }, "slot count"},
		{"trace count", func(c *Config) { c.Traces = c.Traces[:1] }, "traces"},
		{"trace types", func(c *Config) { c.Traces[0] = workload.Constant("x", []float64{1}, 3) }, "types"},
		{"price count", func(c *Config) { c.Prices = c.Prices[:1] }, "price traces"},
		{"bad price", func(c *Config) { c.Prices[0] = &market.PriceTrace{Name: "bad"} }, "center 0"},
	}
	for _, c := range cases {
		cfg := testConfig(3)
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want containing %q", c.name, err, c.want)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestKeepPlansOff(t *testing.T) {
	rep, err := Run(testConfig(2), core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slots[0].Plan != nil {
		t.Fatal("plan retained without KeepPlans")
	}
}

func TestTotalCost(t *testing.T) {
	rep, err := Run(testConfig(3), core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, s := range rep.Slots {
		want += s.EnergyCost + s.TransferCost
	}
	if math.Abs(rep.TotalCost()-want) > 1e-9 {
		t.Fatal("TotalCost mismatch")
	}
}

func TestPlanTracesReconciliation(t *testing.T) {
	cfg := testConfig(4)
	// Forecasts overestimate by 30%: the planner reserves too much, but
	// accounting must never serve more than actually arrived.
	over := make([]*workload.Trace, len(cfg.Traces))
	for i, tr := range cfg.Traces {
		cp := &workload.Trace{Name: tr.Name + "/over", Rates: make([][]float64, tr.Slots())}
		for s := 0; s < tr.Slots(); s++ {
			row := make([]float64, tr.Types())
			for k := range row {
				row[k] = tr.At(s, k) * 1.3
			}
			cp.Rates[s] = row
		}
		over[i] = cp
	}
	cfg.PlanTraces = over
	rep, err := Run(cfg, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range rep.Slots {
		if sr.Served() > sr.Offered()+1e-6 {
			t.Fatalf("slot %d: served %g > actual offered %g", i, sr.Served(), sr.Offered())
		}
	}
	// Under-forecast by 50%: at most half the plan's coverage is usable,
	// so served is capped by the committed (planned) volume.
	under := make([]*workload.Trace, len(cfg.Traces))
	for i, tr := range cfg.Traces {
		cp := &workload.Trace{Name: tr.Name + "/under", Rates: make([][]float64, tr.Slots())}
		for s := 0; s < tr.Slots(); s++ {
			row := make([]float64, tr.Types())
			for k := range row {
				row[k] = tr.At(s, k) * 0.5
			}
			cp.Rates[s] = row
		}
		under[i] = cp
	}
	cfg.PlanTraces = under
	repU, err := Run(cfg, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	oracleCfg := testConfig(4)
	oracle, err := Run(oracleCfg, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	if repU.TotalNetProfit() > oracle.TotalNetProfit()+1e-6 {
		t.Fatalf("under-forecast profit %g beats oracle %g", repU.TotalNetProfit(), oracle.TotalNetProfit())
	}
	for i, sr := range repU.Slots {
		var committed float64
		for k := 0; k < 2; k++ {
			for s := 0; s < 2; s++ {
				committed += under[s].At(sr.Slot, k)
			}
		}
		if sr.Served() > committed*cfg.Sys.Slot()+1e-6 {
			t.Fatalf("slot %d: served %g beyond committed coverage %g", i, sr.Served(), committed)
		}
	}
}

func TestPlanTracesValidation(t *testing.T) {
	cfg := testConfig(2)
	cfg.PlanTraces = cfg.Traces[:1]
	if err := cfg.Validate(); err == nil {
		t.Fatal("short plan traces accepted")
	}
	cfg = testConfig(2)
	cfg.PlanTraces = []*workload.Trace{
		workload.Constant("x", []float64{1}, 2),
		workload.Constant("y", []float64{1}, 2),
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("wrong-typed plan traces accepted")
	}
}

func TestPlanTracesExactForecastMatchesOracle(t *testing.T) {
	cfg := testConfig(3)
	cfg.PlanTraces = cfg.Traces // perfect forecast
	withPlan, err := Run(cfg, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	plain := testConfig(3)
	oracle, err := Run(plain, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withPlan.TotalNetProfit()-oracle.TotalNetProfit()) > 1e-9 {
		t.Fatalf("perfect forecast %g != oracle %g", withPlan.TotalNetProfit(), oracle.TotalNetProfit())
	}
}
