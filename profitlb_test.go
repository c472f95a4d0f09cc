package profitlb

import (
	"math"
	"testing"
)

// exampleSystem builds a small but complete topology through the facade.
func exampleSystem() *System {
	return &System{
		Classes: []RequestClass{
			{Name: "web", TUF: MustTUF(TUFLevel{Utility: 10, Deadline: 0.01}), TransferCostPerMile: 0.0005},
			{Name: "batch", TUF: MustTUF(
				TUFLevel{Utility: 20, Deadline: 0.005},
				TUFLevel{Utility: 8, Deadline: 0.05},
			), TransferCostPerMile: 0.0008},
		},
		FrontEnds: []FrontEnd{
			{Name: "fe1", DistanceMiles: []float64{100, 1200}},
		},
		Centers: []DataCenter{
			{Name: "dc1", Servers: 4, Capacity: 1,
				ServiceRate: []float64{2000, 1500}, EnergyPerRequest: []float64{0.0004, 0.0008}},
			{Name: "dc2", Servers: 4, Capacity: 1,
				ServiceRate: []float64{1800, 1700}, EnergyPerRequest: []float64{0.0005, 0.0007}},
		},
	}
}

func TestFacadeTUFConstructors(t *testing.T) {
	c, err := ConstantTUF(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLevels() != 1 || c.Utility(0.5) != 5 {
		t.Fatal("ConstantTUF wrong")
	}
	if _, err := NewTUF(); err == nil {
		t.Fatal("NewTUF with no levels should fail")
	}
	s := NewTUFConstraintSeries(MustTUF(
		TUFLevel{Utility: 10, Deadline: 1},
		TUFLevel{Utility: 4, Deadline: 2},
	), 0, 0, 5)
	if got := s.FeasibleUtilities(0.5); len(got) != 1 || got[0] != 10 {
		t.Fatalf("series pinning wrong: %v", got)
	}
}

func TestFacadeSimulation(t *testing.T) {
	sys := exampleSystem()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	base := WorldCupLike(WorldCupConfig{Seed: 9, Base: 2500})
	cfg := SimConfig{
		Sys:    sys,
		Traces: []*Trace{ShiftTypes("fe1", base, 2, 3)},
		Prices: []*PriceTrace{Houston(), Atlanta()},
		Slots:  24,
	}
	reports, err := CompareApproaches(cfg,
		NewOptimized(), NewBalanced(), NewNearest(), NewGreedyProfit(), NewRandomBaseline(3))
	if err != nil {
		t.Fatal(err)
	}
	opt := reports[0]
	for _, r := range reports[1:] {
		if opt.TotalNetProfit() < r.TotalNetProfit()-1e-6 {
			t.Fatalf("optimized %g below baseline %s %g",
				opt.TotalNetProfit(), r.Planner, r.TotalNetProfit())
		}
	}
}

func TestFacadePlanVerify(t *testing.T) {
	sys := exampleSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{500, 400}}, Prices: []float64{0.1, 0.08}}
	plan, err := NewOptimized().Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPlan(in, plan, 1e-6); err != nil {
		t.Fatal(err)
	}
	if plan.Served(0) <= 0 {
		t.Fatal("nothing served")
	}
}

func TestFacadeLevelSearch(t *testing.T) {
	sys := exampleSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{500, 400}}, Prices: []float64{0.1, 0.08}}
	plan, err := NewLevelSearch().Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPlan(in, plan, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePrices(t *testing.T) {
	for _, tr := range []*PriceTrace{Houston(), MountainView(), Atlanta()} {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	syn := SyntheticPrices(PriceConfig{Name: "x", Seed: 4})
	if err := syn.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(GoogleLike(GoogleConfig{Seed: 1})) != 7 {
		t.Fatal("GoogleLike default length")
	}
	tr := ConstantTrace("c", []float64{1, 2}, 3)
	if tr.Slots() != 3 || tr.Types() != 2 {
		t.Fatal("ConstantTrace shape")
	}
	pred, err := PredictTrace(tr, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Slots() != 3 {
		t.Fatal("PredictTrace shape")
	}
}

func TestFacadeExperiments(t *testing.T) {
	all := Experiments()
	if len(all) != 26 {
		t.Fatalf("%d experiments registered, want 26 (21 paper artifacts + 5 gates)", len(all))
	}
	e, ok := ExperimentByID("fig6")
	if !ok {
		t.Fatal("fig6 missing")
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 {
		t.Fatal("no tables")
	}
}

func TestFacadeEndToEndProfitPositive(t *testing.T) {
	sys := exampleSystem()
	cfg := SimConfig{
		Sys:    sys,
		Traces: []*Trace{ConstantTrace("fe1", []float64{800, 600}, 6)},
		Prices: []*PriceTrace{Houston(), MountainView()},
		Slots:  6,
	}
	rep, err := Simulate(cfg, NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalNetProfit() <= 0 {
		t.Fatalf("net profit %g not positive", rep.TotalNetProfit())
	}
	if math.IsNaN(rep.TotalCost()) {
		t.Fatal("NaN cost")
	}
}

func TestFacadeHorizon(t *testing.T) {
	sys := exampleSystem()
	h := &HorizonInput{Sys: sys, MaxDefer: []int{0, 2}}
	for tt := 0; tt < 4; tt++ {
		h.Arrivals = append(h.Arrivals, [][]float64{{400, 300}})
		price := 0.5
		if tt >= 2 {
			price = 0.05
		}
		h.Prices = append(h.Prices, []float64{price, price})
	}
	hp, err := PlanHorizon(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyHorizon(h, hp, 1e-5); err != nil {
		t.Fatal(err)
	}
	if len(hp.Slots) != 4 || hp.Objective <= 0 {
		t.Fatalf("horizon plan slots %d obj %g", len(hp.Slots), hp.Objective)
	}
}

func TestFacadeMinCompletion(t *testing.T) {
	sys := exampleSystem()
	in := &Input{Sys: sys, Arrivals: [][]float64{{5000, 5000}}, Prices: []float64{0.1, 0.1}}
	p := NewOptimized()
	p.MinCompletion = []float64{0.3, 0.3}
	plan, err := p.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if plan.Served(k) < 0.3*5000-1e-6 {
			t.Fatalf("type %d floor violated: %g", k, plan.Served(k))
		}
	}
}

func TestFacadeSimulateRequests(t *testing.T) {
	sys := exampleSystem()
	cfg := SimConfig{
		Sys:    sys,
		Traces: []*Trace{ConstantTrace("fe1", []float64{800, 600}, 2)},
		Prices: []*PriceTrace{Houston(), Atlanta()},
		Slots:  2,
	}
	rep, err := SimulateRequests(cfg, NewOptimized(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalNetProfit() <= 0 {
		t.Fatalf("realized %g", rep.TotalNetProfit())
	}
}

func TestFacadeScenario(t *testing.T) {
	sc := ExampleScenario()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalNetProfit() <= 0 {
		t.Fatal("scenario unprofitable")
	}
}

func TestFacadeFaultStorm(t *testing.T) {
	sys := exampleSystem()
	base := WorldCupLike(WorldCupConfig{Seed: 11, Base: 2500})
	storm, err := Storm(StormConfig{
		Seed: 5, Slots: 6, Centers: 2, FrontEnds: 1,
		Outages: 1, Spikes: 1, PlannerFaults: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{
		Sys:              sys,
		Traces:           []*Trace{ShiftTypes("fe1", base, 2, 3)},
		Prices:           []*PriceTrace{Houston(), Atlanta()},
		Slots:            6,
		Faults:           storm,
		DegradeOnFailure: true,
	}
	rep, err := Simulate(cfg, Resilient(&FaultInjector{Planner: NewOptimized(), Sched: storm}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slots) != 6 {
		t.Fatalf("storm horizon stopped at %d slots", len(rep.Slots))
	}
	if rep.DegradedSlots() == 0 {
		t.Fatal("injected planner fault never degraded a slot")
	}
}
