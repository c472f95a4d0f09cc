package sim_test

import (
	"math"
	"sync"
	"testing"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/dispatch"
	"profitlb/internal/exp"
	"profitlb/internal/fault"
	"profitlb/internal/feed"
	"profitlb/internal/market"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

// inputTap records every input its planner is asked to plan on.
type inputTap struct {
	core.Planner
	mu     sync.Mutex
	inputs []*core.Input
}

func (r *inputTap) Plan(in *core.Input) (*core.Plan, error) {
	cp := &core.Input{Slot: in.Slot, Prices: append([]float64(nil), in.Prices...)}
	for _, row := range in.Arrivals {
		cp.Arrivals = append(cp.Arrivals, append([]float64(nil), row...))
	}
	r.mu.Lock()
	r.inputs = append(r.inputs, cp)
	r.mu.Unlock()
	return r.Planner.Plan(in)
}

// TestPlanInputsAreTheObservedOracle: every plane that plans off a
// sim.InputSource — sim.Run and a dispatch.Driver, the serving plane's
// planning half — hands its planner, on every slot, exactly the observed
// oracle: the forecast
// trace's arrivals and the listed prices, as the fault schedule lets a
// planner see them (a price blackout holds the last price, a trace drop
// zeroes a front-end). That holds bit for bit whether the run names a
// feed layer or not: a clean feed layer transports the observed oracle
// unchanged.
func TestPlanInputsAreTheObservedOracle(t *testing.T) {
	const slots = 8
	base := func(seed int64, b float64) []float64 {
		return workload.WorldCupLike(workload.WorldCupConfig{Seed: seed, Base: b})
	}
	cfg := sim.Config{
		Sys: &datacenter.System{
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
		},
		Traces: []*workload.Trace{
			workload.ShiftTypes("fe1", base(1, 120), 2, 3),
			workload.ShiftTypes("fe2", base(2, 90), 2, 3),
		},
		PlanTraces: []*workload.Trace{
			workload.ShiftTypes("fe1", base(11, 130), 2, 3),
			workload.ShiftTypes("fe2", base(12, 80), 2, 3),
		},
		Prices: []*market.PriceTrace{market.Houston(), market.MountainView()},
		Slots:  slots,
		Faults: &fault.Schedule{Events: []fault.Event{
			{Kind: fault.PriceBlackout, Center: 0, From: 2, To: 4},
			{Kind: fault.TraceDrop, FrontEnd: 1, From: 5, To: 5},
		}},
		DegradeOnFailure: true,
	}
	if cfg.Faults.ObservedPrice(cfg.Prices[0], 0, 3) == cfg.Prices[0].At(3) {
		t.Fatal("the blackout hides nothing: the fixture lost its distortion")
	}
	for _, c := range []struct {
		name  string
		feeds *feed.Config
	}{{"feeds-nil", nil}, {"feeds-zero", &feed.Config{}}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := cfg
			cfg.Feeds = c.feeds
			planes := map[string]*inputTap{}
			tap := func(plane string) *inputTap {
				planes[plane] = &inputTap{Planner: core.NewOptimized()}
				return planes[plane]
			}
			if _, err := sim.Run(cfg, tap("sim")); err != nil {
				t.Fatal(err)
			}
			src, err := sim.NewInputSource(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := &dispatch.Driver{
				Gateway: dispatch.NewGateway(cfg.Sys, dispatch.Config{}.WithDefaults(), nil),
				Planner: tap("driver"), Source: src,
			}
			for abs := 0; abs < slots; abs++ {
				if _, err := d.PlanTable(abs); err != nil || d.LastErr != nil {
					t.Fatalf("driver slot %d: %v / %v", abs, err, d.LastErr)
				}
			}
			for plane, r := range planes {
				if len(r.inputs) != slots {
					t.Fatalf("%s planned %d slots, want %d", plane, len(r.inputs), slots)
				}
				for _, in := range r.inputs {
					abs := in.Slot
					for l, got := range in.Prices {
						if want := cfg.Faults.ObservedPrice(cfg.Prices[l], l, abs); got != want {
							t.Fatalf("%s slot %d: center %d price %v, observed oracle %v", plane, abs, l, got, want)
						}
					}
					for s, row := range in.Arrivals {
						for k, got := range row {
							if want := cfg.Faults.ObservedArrival(cfg.PlanTraces[s].At(abs, k), s, abs); got != want {
								t.Fatalf("%s slot %d: front-end %d class %d arrival %v, observed oracle %v", plane, abs, s, k, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestPlannerObjectiveMatchesAccounting: every planner's predicted
// objective is what the simulator accounts for its plan, to round-off, on
// every slot of the package's test day, the Section VI day and Section
// VII's window — the
// planner values Eq. 5 at each commodity's level utility, the accounting
// at the utility core.Value pays at the commodity's delay.
func TestPlannerObjectiveMatchesAccounting(t *testing.T) {
	planners := []struct {
		name string
		mk   func() core.Planner
	}{
		{"optimized", func() core.Planner { return core.NewOptimized() }},
		{"optimized/refine-off", func() core.Planner {
			o := core.NewOptimized()
			o.Refine = false
			return o
		}},
		{"level-search/greedy", func() core.Planner {
			ls := core.NewLevelSearch()
			ls.Strategy = core.Greedy
			return ls
		}},
		{"level-search/branch-and-bound", func() core.Planner {
			ls := core.NewLevelSearch()
			ls.Strategy = core.BranchBound
			return ls
		}},
		{"balanced", func() core.Planner { return baseline.NewBalanced() }},
	}
	setups := []struct {
		name string
		cfg  sim.Config
	}{
		{"two-centers", sim.TestConfig(4)},
		{"section-vi", exp.NewTraceSetup().Config()},
		{"section-vii", exp.NewTwoLevelSetup().Config()},
	}
	for _, setup := range setups {
		for _, p := range planners {
			t.Run(setup.name+"/"+p.name, func(t *testing.T) {
				cfg := setup.cfg
				cfg.KeepPlans = true
				rep, err := sim.Run(cfg, p.mk())
				if err != nil {
					t.Fatal(err)
				}
				var worst float64
				for i, sr := range rep.Slots {
					d := math.Abs(sr.NetProfit-sr.Plan.Objective) / (1 + math.Abs(sr.NetProfit))
					if d > 1e-12 {
						t.Fatalf("slot %d: accounted %.17g vs planned %.17g", i, sr.NetProfit, sr.Plan.Objective)
					}
					worst = max(worst, d)
				}
				t.Logf("%d slots, worst relative gap %.3g", len(rep.Slots), worst)
			})
		}
	}
}
