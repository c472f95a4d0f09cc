package profitlb

// End-to-end integration: one realistic provider workflow exercising the
// whole stack through the public facade — scenario definition, fluid
// simulation, baseline comparison, forecast-driven planning, request-level
// realization, sensitivity, capacity advice and multi-slot deferral — with
// cross-checks between the layers.

import (
	"bytes"
	"math"
	"testing"
)

// buildProviderSystem is a mid-size realistic topology: 3 classes
// (interactive, API, batch), 2 front-ends, 3 centers.
func buildProviderSystem() *System {
	return &System{
		Classes: []RequestClass{
			{Name: "interactive", TUF: MustTUF(
				TUFLevel{Utility: 0.02, Deadline: 0.002},
				TUFLevel{Utility: 0.008, Deadline: 0.01},
			), TransferCostPerMile: 2e-7},
			{Name: "api", TUF: MustTUF(
				TUFLevel{Utility: 0.005, Deadline: 0.005},
			), TransferCostPerMile: 1e-7},
			{Name: "batch", TUF: MustTUF(
				TUFLevel{Utility: 0.05, Deadline: 0.1},
			), TransferCostPerMile: 3e-7},
		},
		FrontEnds: []FrontEnd{
			{Name: "east", DistanceMiles: []float64{200, 2300, 800}},
			{Name: "west", DistanceMiles: []float64{2400, 150, 1600}},
		},
		Centers: []DataCenter{
			{Name: "virginia", Servers: 8, Capacity: 1,
				ServiceRate:      []float64{40000, 90000, 2500},
				EnergyPerRequest: []float64{0.0001, 0.00004, 0.01}},
			{Name: "oregon", Servers: 8, Capacity: 1,
				ServiceRate:      []float64{38000, 95000, 2800},
				EnergyPerRequest: []float64{0.00011, 0.00004, 0.009}},
			{Name: "dallas", Servers: 6, Capacity: 1,
				ServiceRate:      []float64{42000, 88000, 2600},
				EnergyPerRequest: []float64{0.00009, 0.000045, 0.0095}},
		},
	}
}

func buildProviderConfig(sys *System) SimConfig {
	east := ShiftTypes("east", WorldCupLike(WorldCupConfig{Seed: 501, Base: 60000}), 3, 7)
	west := ShiftTypes("west", WorldCupLike(WorldCupConfig{Seed: 502, Base: 52000}), 3, 7)
	return SimConfig{
		Sys:    sys,
		Traces: []*Trace{east, west},
		Prices: []*PriceTrace{Atlanta(), MountainView(), Houston()},
		Slots:  24,
	}
}

func TestIntegrationFullPipeline(t *testing.T) {
	sys := buildProviderSystem()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := buildProviderConfig(sys)

	// 1. Fluid comparison: the optimizer must dominate every baseline.
	reports, err := CompareApproaches(cfg,
		NewOptimized(), NewBalanced(), NewNearest(), NewGreedyProfit(), NewRandomBaseline(5))
	if err != nil {
		t.Fatal(err)
	}
	opt := reports[0]
	for _, r := range reports[1:] {
		if opt.TotalNetProfit() < r.TotalNetProfit()-1e-6 {
			t.Fatalf("optimized %g below %s %g", opt.TotalNetProfit(), r.Planner, r.TotalNetProfit())
		}
	}

	// 2. Forecast-driven planning stays within a sane band of the oracle.
	predicted := make([]*Trace, len(cfg.Traces))
	for i, tr := range cfg.Traces {
		p, err := PredictTrace(tr, 1e8, 5e7)
		if err != nil {
			t.Fatal(err)
		}
		predicted[i] = p
	}
	fcCfg := cfg
	fcCfg.PlanTraces = predicted
	fc, err := Simulate(fcCfg, NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	frac := fc.TotalNetProfit() / opt.TotalNetProfit()
	if frac < 0.5 || frac > 1.0+1e-9 {
		t.Fatalf("forecast-driven fraction %g outside (0.5, 1]", frac)
	}

	// 3. Request-level realization tracks the fluid service volumes.
	des, err := SimulateRequests(cfg, NewOptimized(), 77)
	if err != nil {
		t.Fatal(err)
	}
	var fluidServed, realServed float64
	for i := range opt.Slots {
		fluidServed += opt.Slots[i].Served()
		for _, cs := range des.Slots[i].Classes {
			realServed += float64(cs.Served)
		}
	}
	if math.Abs(realServed-fluidServed)/fluidServed > 0.05 {
		t.Fatalf("request-level served %g vs fluid %g", realServed, fluidServed)
	}

	// 4. Sensitivity prices every center's share non-negatively at the busy hour.
	in := &Input{Sys: sys, Prices: make([]float64, 3)}
	in.Arrivals = make([][]float64, 2)
	for s := 0; s < 2; s++ {
		in.Arrivals[s] = make([]float64, 3)
		for k := 0; k < 3; k++ {
			in.Arrivals[s][k] = cfg.Traces[s].At(15, k) // the busy hour
		}
	}
	for l := 0; l < 3; l++ {
		in.Prices[l] = cfg.Prices[l].At(15)
	}
	sens, err := NewOptimized().Sensitivity(in)
	if err != nil {
		t.Fatal(err)
	}
	for l, v := range sens.ShareValue {
		if v < 0 {
			t.Fatalf("negative share price at center %d: %g", l, v)
		}
	}

	// 5. Scenario JSON round trip reproduces the exact fluid result.
	sc := &Scenario{Name: "integration", System: sys, Traces: cfg.Traces,
		Prices: cfg.Prices, Slots: cfg.Slots, Planner: "optimized"}
	var buf bytes.Buffer
	if err := sc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := back.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.TotalNetProfit()-opt.TotalNetProfit()) > 1e-6*(1+opt.TotalNetProfit()) {
		t.Fatalf("scenario round trip changed profit: %g vs %g",
			rep.TotalNetProfit(), opt.TotalNetProfit())
	}

	// 6. Deferral over a price valley never hurts and the plan verifies.
	h := &HorizonInput{Sys: sys, MaxDefer: []int{0, 0, 3}}
	for tt := 12; tt < 20; tt++ {
		arr := make([][]float64, 2)
		for s := 0; s < 2; s++ {
			arr[s] = make([]float64, 3)
			for k := 0; k < 3; k++ {
				arr[s][k] = cfg.Traces[s].At(tt, k)
			}
		}
		prices := make([]float64, 3)
		for l := 0; l < 3; l++ {
			prices[l] = cfg.Prices[l].At(tt)
		}
		h.Arrivals = append(h.Arrivals, arr)
		h.Prices = append(h.Prices, prices)
	}
	flexible, err := PlanHorizon(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyHorizon(h, flexible, 1e-5); err != nil {
		t.Fatal(err)
	}
	h.MaxDefer = []int{0, 0, 0}
	myopic, err := PlanHorizon(h)
	if err != nil {
		t.Fatal(err)
	}
	if flexible.Objective < myopic.Objective-1e-6*(1+math.Abs(myopic.Objective)) {
		t.Fatalf("deferral hurt: %g vs %g", flexible.Objective, myopic.Objective)
	}
}
