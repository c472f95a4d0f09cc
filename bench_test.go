package profitlb

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (each re-runs the registered experiment that
// regenerates the artifact), plus micro-benchmarks of the optimization
// substrates and the ablations called out in DESIGN.md §5.
//
// Run with: go test -bench=. -benchmem

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/exp"
	"profitlb/internal/lp"
	"profitlb/internal/market"
	"profitlb/internal/mpc"
	"profitlb/internal/sim"
	"profitlb/internal/tuf"
	"profitlb/internal/workload"
)

// benchExperiment re-runs a registered experiment end to end.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig01Prices(b *testing.B)         { benchExperiment(b, "fig1") }
func BenchmarkTab02ArrivalSets(b *testing.B)    { benchExperiment(b, "tab2") }
func BenchmarkTab03DataCenters(b *testing.B)    { benchExperiment(b, "tab3") }
func BenchmarkFig04aLowLoad(b *testing.B)       { benchExperiment(b, "fig4a") }
func BenchmarkFig04bHighLoad(b *testing.B)      { benchExperiment(b, "fig4b") }
func BenchmarkFig05Traces(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkTab04Capacities(b *testing.B)     { benchExperiment(b, "tab4") }
func BenchmarkTab05Distances(b *testing.B)      { benchExperiment(b, "tab5") }
func BenchmarkTab06ProcessingCost(b *testing.B) { benchExperiment(b, "tab6") }
func BenchmarkTab07TUFs(b *testing.B)           { benchExperiment(b, "tab7") }
func BenchmarkFig06NetProfit(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig07Dispatch(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkTab08Capacities(b *testing.B)     { benchExperiment(b, "tab8") }
func BenchmarkTab09SubDeadlines(b *testing.B)   { benchExperiment(b, "tab9") }
func BenchmarkTab10TUFValues(b *testing.B)      { benchExperiment(b, "tab10") }
func BenchmarkTab11Power(b *testing.B)          { benchExperiment(b, "tab11") }
func BenchmarkFig08TwoLevel(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig09Alloc(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkFig10aLowLoad(b *testing.B)       { benchExperiment(b, "fig10a") }
func BenchmarkFig10bHighLoad(b *testing.B)      { benchExperiment(b, "fig10b") }

// BenchmarkFig11PlanTime reproduces the computation-time sweep directly:
// one sub-benchmark per fleet size, timing single per-server planner calls
// (the quantity plotted in the paper's Fig. 11).
func BenchmarkFig11PlanTime(b *testing.B) {
	for _, m := range exp.Fig11ServerCounts {
		m := m
		b.Run(planSizeName(m), func(b *testing.B) {
			planner := core.NewOptimized()
			planner.PerServer = true
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exp.PlanOnce(m, planner); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func planSizeName(m int) string { return fmt.Sprintf("servers=%02d", m) }

// Substrate micro-benchmarks.

func benchInput() *core.Input {
	ts := exp.NewTwoLevelSetup()
	return &core.Input{
		Sys:      ts.Sys,
		Arrivals: [][]float64{{ts.Traces[0].At(15, 0), ts.Traces[0].At(15, 1)}},
		Prices:   []float64{ts.Prices[0].At(15), ts.Prices[1].At(15)},
	}
}

func BenchmarkPlannerOptimized(b *testing.B) {
	in := benchInput()
	p := core.NewOptimized()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerBalanced(b *testing.B) {
	in := benchInput()
	p := NewBalanced()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(in); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 1 (DESIGN.md §5): level-search strategies.
func BenchmarkLevelSearchStrategies(b *testing.B) {
	in := benchInput()
	for _, s := range []core.Strategy{core.Exhaustive, core.Greedy, core.BranchBound} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			p := core.NewLevelSearch()
			p.Strategy = s
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Plan(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation 2: simplex pivoting rules on the dispatch LP.
func BenchmarkSimplexPivot(b *testing.B) {
	in := benchInput()
	for _, bland := range []bool{false, true} {
		name := "dantzig"
		if bland {
			name = "bland"
		}
		bland := bland
		b.Run(name, func(b *testing.B) {
			p := core.NewOptimized()
			p.LPOpts = lp.Options{Bland: bland}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Plan(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation 3: per-server (paper-faithful) vs aggregated variables.
func BenchmarkAggregation(b *testing.B) {
	in := benchInput()
	for _, perServer := range []bool{false, true} {
		name := "aggregated"
		if perServer {
			name = "per-server"
		}
		perServer := perServer
		b.Run(name, func(b *testing.B) {
			p := core.NewOptimized()
			p.PerServer = perServer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Plan(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation 4: subset refinement on vs off.
func BenchmarkRefinement(b *testing.B) {
	in := benchInput()
	for _, refine := range []bool{false, true} {
		name := "off"
		if refine {
			name = "on"
		}
		refine := refine
		b.Run(name, func(b *testing.B) {
			p := core.NewOptimized()
			p.Refine = refine
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Plan(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimplexDispatchLPDirect(b *testing.B) {
	// A raw LP of the Section VI shape: 3 types × 3 centers × 4 FEs.
	build := func() *lp.Model {
		m := lp.NewModel()
		const K, S, L = 3, 4, 3
		var x [K][S][L]int
		var f [K][L]int
		for k := 0; k < K; k++ {
			for l := 0; l < L; l++ {
				f[k][l] = m.AddVariable("f", 0)
				for s := 0; s < S; s++ {
					x[k][s][l] = m.AddVariable("x", 10+float64(k))
				}
			}
		}
		for k := 0; k < K; k++ {
			for l := 0; l < L; l++ {
				terms := []lp.Term{{Var: f[k][l], Coef: 9000}}
				for s := 0; s < S; s++ {
					terms = append(terms, lp.Term{Var: x[k][s][l], Coef: -1})
				}
				m.AddConstraint("cap", terms, lp.GE, 600)
			}
			for s := 0; s < S; s++ {
				var terms []lp.Term
				for l := 0; l < L; l++ {
					terms = append(terms, lp.Term{Var: x[k][s][l], Coef: 1})
				}
				m.AddConstraint("arr", terms, lp.LE, 2500)
			}
		}
		for l := 0; l < L; l++ {
			var terms []lp.Term
			for k := 0; k < K; k++ {
				terms = append(terms, lp.Term{Var: f[k][l], Coef: 1})
			}
			m.AddConstraint("share", terms, lp.LE, 1)
		}
		return m
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := build().Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBigMSeriesEval(b *testing.B) {
	t := tuf.MustNew([]tuf.Level{{Utility: 9, Deadline: 0.5}, {Utility: 6, Deadline: 1.5}, {Utility: 2, Deadline: 3}})
	cs := tuf.NewConstraintSeries(t, 0, 0, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs.FeasibleUtilities(0.9)
	}
}

func BenchmarkWorldCupGenerator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		workload.WorldCupLike(workload.WorldCupConfig{Seed: int64(i)})
	}
}

func BenchmarkSimulate24Slots(b *testing.B) {
	ts := exp.NewTraceSetup()
	cfg := ts.Config()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, core.NewOptimized()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivity prices one slot's scarce resources.
func BenchmarkSensitivity(b *testing.B) {
	in := benchInput()
	p := core.NewOptimized()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Sensitivity(in); err != nil {
			b.Fatal(err)
		}
	}
}

// The extension experiments a gate or the README names.

func BenchmarkAbl13Defer(b *testing.B)     { benchExperiment(b, "abl13-defer") }
func BenchmarkMPC1PriceShift(b *testing.B) { benchExperiment(b, "mpc1-priceshift") }
func BenchmarkMPC2FaultDefer(b *testing.B) { benchExperiment(b, "mpc2-faultdefer") }

// mpcVibrationConfig is the MPC trajectory scenario: the Houston
// 13:00–21:00 vibration window (spikes at 14/16/18h) with a web class
// pinned to its arrival hour and an energy-heavy batch class worth
// deferring across the spikes — the mpc1-priceshift physics.
func mpcVibrationConfig() (sim.Config, int) {
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "web", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.2}}), TransferCostPerMile: 0.0005},
			{Name: "batch", TUF: tuf.MustNew([]tuf.Level{{Utility: 5, Deadline: 1.0}}), TransferCostPerMile: 0.0005},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "fe", DistanceMiles: []float64{100}}},
		Centers: []datacenter.DataCenter{{
			Name: "dc", Servers: 8, Capacity: 1,
			ServiceRate:      []float64{120, 100},
			EnergyPerRequest: []float64{1.0, 40},
		}},
	}
	const start, slots = 13, 8
	return sim.Config{
		Sys:       sys,
		Traces:    []*workload.Trace{workload.Constant("fe", []float64{300, 200}, start+slots)},
		Prices:    []*market.PriceTrace{market.Houston()},
		Slots:     slots,
		StartSlot: start,
	}, start + slots
}

// TestMPCHorizonTrajectory sweeps the rolling-horizon window length over
// the vibration scenario and records per-horizon run latency, net profit
// and deferral volume under the "mpc" key of the file named by
// BENCH_PLAN_JSON (skipped when unset; `make bench` sets it). The gates
// are the planning plane's headline claims: every horizon's ledger
// settles clean (nothing shed, no stranded backlog), H=1 reduces to the
// myopic planner's profit exactly, and a window of 4+ slots beats the
// myopic profit on the vibration.
func TestMPCHorizonTrajectory(t *testing.T) {
	out := os.Getenv("BENCH_PLAN_JSON")
	if out == "" {
		t.Skip("set BENCH_PLAN_JSON=FILE to record the benchmark trajectory")
	}
	cfg, endSlot := mpcVibrationConfig()
	myo, err := sim.Run(cfg, core.NewOptimized())
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		Horizon   int     `json:"horizon"`
		RunNs     int64   `json:"run_ns"`
		NetProfit float64 `json:"net_profit"`
		Deferred  float64 `json:"deferred"`
		Forced    float64 `json:"forced"`
		VsMyopic  float64 `json:"vs_myopic"`
	}
	var points []point
	for _, h := range []int{1, 2, 4, 8} {
		mc := mpc.Config{Horizon: h, MaxDefer: []int{0, 2}, EndSlot: endSlot}
		// Min over 3 passes: a full 8-slot run is ~ms-scale, so one
		// stall of a shared box could dominate a single sample.
		best := time.Duration(1 << 62)
		var rep *sim.Report
		for i := 0; i < 3; i++ {
			start := time.Now()
			r, err := sim.Run(cfg, mpc.New(mc))
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best, rep = d, r
			}
		}
		deferred, _, forced, shed := rep.DeferralTotals()
		if shed != 0 {
			t.Errorf("horizon %d: shed %g on a clean ample-capacity window", h, shed)
		}
		if got := rep.FinalBacklog(); got != 0 {
			t.Errorf("horizon %d: stranded backlog %g", h, got)
		}
		net := rep.TotalNetProfit()
		if h == 1 && net != myo.TotalNetProfit() {
			t.Errorf("horizon 1 net %g != myopic %g — reduction broken", net, myo.TotalNetProfit())
		}
		if h >= 4 && net <= myo.TotalNetProfit() {
			t.Errorf("horizon %d net %g does not beat myopic %g on the vibration",
				h, net, myo.TotalNetProfit())
		}
		points = append(points, point{
			Horizon: h, RunNs: best.Nanoseconds(), NetProfit: net,
			Deferred: deferred, Forced: forced,
			VsMyopic: net/myo.TotalNetProfit() - 1,
		})
	}
	updateBenchJSON(t, out, "mpc", map[string]any{
		"scenario":          "houston-vibration-13h-21h",
		"slots":             cfg.Slots,
		"max_defer":         []int{0, 2},
		"myopic_net_profit": myo.TotalNetProfit(),
		"results":           points,
	})
}

// rob2ChaosScaleInput is the planning slot of the parallel-search
// benchmarks: the Section VII two-level topology grown to the scale of
// the rob2-chaos storm experiment — a third request class and a third,
// energy-expensive data center that is unprofitable for every class.
// The exhaustive level space has 3^9 = 19 683 assignments (each pair's
// two levels and off), but every choice on the unprofitable center's
// pairs filters to the same commodity set, so only 3^6 = 729 distinct
// subset LPs exist, and the walk's canonical level vectors reach each
// once: 728 solves, the all-out vector being no LP.
func rob2ChaosScaleInput() *core.Input {
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "request1", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.005}, {Utility: 4, Deadline: 0.02}}), TransferCostPerMile: 0.0002},
			{Name: "request2", TUF: tuf.MustNew([]tuf.Level{{Utility: 20, Deadline: 0.004}, {Utility: 8, Deadline: 0.015}}), TransferCostPerMile: 0.0003},
			{Name: "request3", TUF: tuf.MustNew([]tuf.Level{{Utility: 15, Deadline: 0.006}, {Utility: 6, Deadline: 0.03}}), TransferCostPerMile: 0.0002},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "frontend", DistanceMiles: []float64{1000, 2000, 1500}}},
		Centers: []datacenter.DataCenter{
			{Name: "dc1", Servers: 6, Capacity: 1, ServiceRate: []float64{1500, 600, 1000}, EnergyPerRequest: []float64{0.0004, 0.0006, 0.0005}},
			{Name: "dc2", Servers: 6, Capacity: 1, ServiceRate: []float64{1200, 900, 1100}, EnergyPerRequest: []float64{0.0005, 0.0005, 0.0005}},
			{Name: "dc3", Servers: 6, Capacity: 1, ServiceRate: []float64{1000, 1000, 1000}, EnergyPerRequest: []float64{0.9, 0.9, 0.9}},
		},
	}
	return &core.Input{Sys: sys, Arrivals: [][]float64{{3000, 2500, 2800}}, Prices: []float64{40, 45, 60}}
}

// planSearchPlanners builds the two engine planners of the plan-search
// benchmarks at one setting of the variable that survives in the engine:
// warm-started or cold solves.
func planSearchPlanners(warm bool, stats *core.SearchStats) map[string]core.Planner {
	ls := core.NewLevelSearch()
	ls.Strategy = core.Exhaustive
	ls.WarmStart = warm
	ls.Stats = stats
	o := core.NewOptimized()
	o.WarmStart = warm
	o.Stats = stats
	return map[string]core.Planner{"level-search": ls, "optimized": o}
}

// planSearchModes is one row per setting of that variable. Both rows run
// the same engine, every request a solve.
var planSearchModes = []struct {
	name string
	warm bool
}{{"cold", false}, {"warm", true}}

// BenchmarkPlanSearch times the rob2-chaos-scale slot at every row of
// planSearchModes. Compare with benchstat:
//
//	go test -bench BenchmarkPlanSearch -count 10 -run NONE .
func BenchmarkPlanSearch(b *testing.B) {
	in := rob2ChaosScaleInput()
	for _, mode := range planSearchModes {
		for name, p := range planSearchPlanners(mode.warm, nil) {
			p := p
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.Plan(in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// updateBenchJSON read-modify-writes one top-level section of the
// benchmark trajectory file, so the trajectory tests can each own a key
// without clobbering the others' results.
func updateBenchJSON(t *testing.T, path, key string, section any) {
	t.Helper()
	doc := map[string]json.RawMessage{}
	if blob, err := os.ReadFile(path); err == nil {
		// Tolerate a missing or legacy-format file: start fresh then.
		_ = json.Unmarshal(blob, &doc)
	}
	raw, err := json.Marshal(section)
	if err != nil {
		t.Fatal(err)
	}
	doc[key] = raw
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s section of %s: %s", key, path, raw)
}

// TestPlanSearchTrajectory times the rob2-chaos-scale slot at every row
// of planSearchModes and writes the rows — each with its own time, LP
// solves and pivots — to the file named by BENCH_PLAN_JSON
// (skipped when unset; `make bench` sets it), stamped with the box's
// CPU count and GOMAXPROCS. No ratio is gated here — every row runs the
// same engine, so there is no second path left to be faster than — but
// every row must reach the same objective.
func TestPlanSearchTrajectory(t *testing.T) {
	out := os.Getenv("BENCH_PLAN_JSON")
	if out == "" {
		t.Skip("set BENCH_PLAN_JSON=FILE to record the benchmark trajectory")
	}
	in := rob2ChaosScaleInput()
	// Each timing sample is a batch of 5 consecutive Plan calls — the
	// replanning pattern the engine serves in production, and an order of
	// magnitude more signal than a single ~1ms Plan on a shared box. A
	// retained warm planner re-solves later calls of a batch from its own
	// basis, which is exactly the behavior under measurement.
	timeBatch := func(p core.Planner) (time.Duration, *core.Plan) {
		const batch = 5
		start := time.Now()
		var got *core.Plan
		for j := 0; j < batch; j++ {
			var err error
			if got, err = p.Plan(in); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start), got
	}
	type row struct {
		Planner    string `json:"planner"`
		Mode       string `json:"mode"`
		Warm       bool   `json:"warm"`
		Ns         int64  `json:"ns"`
		LPSolves   int64  `json:"lp_solves"`
		WarmHits   int64  `json:"warm_hits"`
		WarmPivots int64  `json:"warm_pivots"`
		ColdPivots int64  `json:"cold_pivots"`
	}
	var rows []row
	for _, name := range []string{"level-search", "optimized"} {
		modes := planSearchModes
		planners := make([]core.Planner, len(modes))
		stats := make([]core.SearchStats, len(modes))
		best := make([]time.Duration, len(modes))
		plans := make([]*core.Plan, len(modes))
		for i, mode := range modes {
			planners[i] = planSearchPlanners(mode.warm, &stats[i])[name]
			best[i] = time.Duration(1 << 62)
		}
		// The rows' batches are interleaved and each keeps its minimum, so
		// a slow phase of a shared machine cannot land on one row only.
		for rep := 0; rep < 4; rep++ {
			for i := range modes {
				if d, got := timeBatch(planners[i]); d < best[i] {
					best[i], plans[i] = d, got
				}
			}
		}
		for i, mode := range modes {
			// Warm results are audited but may differ from cold at
			// round-off level, so the cross-row check is a tolerance, not
			// bit equality.
			if d := plans[i].Objective - plans[0].Objective; d > 1e-9*(1+plans[0].Objective) || -d > 1e-9*(1+plans[0].Objective) {
				t.Fatalf("%s %s: objective %v != %s objective %v", name, mode.name, plans[i].Objective, modes[0].name, plans[0].Objective)
			}
			rows = append(rows, row{
				Planner: name, Mode: mode.name, Warm: mode.warm, Ns: best[i].Nanoseconds(),
				LPSolves: stats[i].Solves, WarmHits: stats[i].WarmHits,
				WarmPivots: stats[i].WarmPivots, ColdPivots: stats[i].ColdPivots,
			})
		}
	}
	updateBenchJSON(t, out, "plan_search", map[string]any{
		"scenario":         "rob2-chaos-scale",
		"cpus":             runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"plans_per_sample": 5,
		"results":          rows,
	})
}

// largeTopologySystem is the warm-start benchmark topology at revised-
// simplex scale: 100 centers x 20 classes x 2 TUF levels x 3 front-ends.
// Half of the (class, center) pairs are priced out by a pattern of
// energy-hungry assignments (1.5 kWh/request costs more than any
// utility at any price in the sweep), leaving ~2000 admitted
// commodities and a dispatch LP of ~2160 rows x ~8000 structural
// variables — far above the solver's sparse row threshold, the scale
// where a dense tableau's O(rows·cols) work per hot re-solve would
// dominate re-solve latency.
func largeTopologySystem() *datacenter.System { return synthTopology(20, 100, 3) }

// synthTopology is largeTopologySystem's construction at a chosen size.
func synthTopology(K, L, S int) *datacenter.System {
	classes := make([]datacenter.RequestClass, K)
	for k := range classes {
		u := 12 + float64(k)
		classes[k] = datacenter.RequestClass{
			Name: fmt.Sprintf("class%02d", k),
			TUF: tuf.MustNew([]tuf.Level{
				{Utility: u, Deadline: 0.02},
				{Utility: u * 0.45, Deadline: 0.08},
			}),
			TransferCostPerMile: 0.00005,
		}
	}
	fes := make([]datacenter.FrontEnd, S)
	for s := range fes {
		d := make([]float64, L)
		for l := range d {
			d[l] = 200 + 37*float64((s*7+l*11)%29)
		}
		fes[s] = datacenter.FrontEnd{Name: fmt.Sprintf("fe%d", s), DistanceMiles: d}
	}
	centers := make([]datacenter.DataCenter, L)
	for l := range centers {
		mu := make([]float64, K)
		en := make([]float64, K)
		for k := range mu {
			mu[k] = 900 + 20*float64((l+k)%6)
			if (l*7+k)%2 == 0 {
				en[k] = 0.0004 + 0.00002*float64((l*3+k)%5)
			} else {
				en[k] = 1.5
			}
		}
		centers[l] = datacenter.DataCenter{
			Name: fmt.Sprintf("dc%02d", l), Servers: 4, Capacity: 1,
			ServiceRate: mu, EnergyPerRequest: en,
		}
	}
	return &datacenter.System{Classes: classes, FrontEnds: fes, Centers: centers}
}

// largeTopologyInput perturbs arrivals ±3% and prices ±2% per slot — the
// cross-slot drift of a real trace, small enough that the admitted
// commodity set (hence the LP structure) is stable and the previous
// slot's basis stays an excellent starting vertex.
func largeTopologyInput(sys *datacenter.System, slot int) *core.Input {
	K, L, S := sys.K(), sys.L(), sys.S()
	arr := make([][]float64, S)
	for s := range arr {
		arr[s] = make([]float64, K)
		for k := range arr[s] {
			base := 400 + 30*float64((s+k)%7)
			arr[s][k] = base * (1 + 0.03*math.Sin(float64(slot)+float64(s*13+k)))
		}
	}
	prices := make([]float64, L)
	for l := range prices {
		prices[l] = (30 + float64(l%9)) * (1 + 0.02*math.Cos(float64(slot)+float64(l)))
	}
	return &core.Input{Sys: sys, Arrivals: arr, Prices: prices, Slot: slot}
}

// TestWarmStartTrajectory times the warm chain over a perturbed slot
// sequence on the large topology and records the point in BENCH_PLAN_JSON.
// The chain has three regimes — slot 0 arms the LU kernel (the fresh
// start's all-slack crash of the ~2160-row LP), slot 1 is the first
// retained re-use, and every later slot is a hot re-solve (rhs refresh + a
// handful of pivots) — recorded apart, so the arming cost is never
// averaged into the steady state. Every slot must be answered warm by the sparse kernel with
// zero audit fallbacks, at the cold reference's objective.
func TestWarmStartTrajectory(t *testing.T) {
	out := os.Getenv("BENCH_PLAN_JSON")
	if out == "" {
		t.Skip("set BENCH_PLAN_JSON=FILE to record the benchmark trajectory")
	}
	sys := largeTopologySystem()
	const slots = 6
	// Per-slot minimum over 3 independent chain passes (fresh planner per
	// pass — a warm chain re-arms from its own slot 0): per-slot times at
	// this scale are well above timer noise, but a shared box can still
	// stall one pass.
	durs := make([]time.Duration, slots)
	stats := make([]core.SearchStats, slots)
	objs := make([]float64, slots)
	for pass := 0; pass < 3; pass++ {
		p := core.NewOptimized()
		p.Refine = false // one dispatch LP per slot: isolates the solver path
		p.Stats = &core.SearchStats{}
		for slot := 0; slot < slots; slot++ {
			in := largeTopologyInput(sys, slot)
			start := time.Now()
			plan, err := p.Plan(in)
			if err != nil {
				t.Fatalf("slot %d: %v", slot, err)
			}
			if d := time.Since(start); pass == 0 || d < durs[slot] {
				durs[slot] = d
			}
			stats[slot], objs[slot] = *p.Stats, plan.Objective
		}
	}
	// The cold reference of the last slot: round-off accumulates through
	// eta files, so agreement is a tolerance, not bit equality.
	cold := core.NewOptimized()
	cold.Refine, cold.WarmStart = false, false
	ref, err := cold.Plan(largeTopologyInput(sys, slots-1))
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(objs[slots-1] - ref.Objective); d > 1e-7*(1+ref.Objective) {
		t.Fatalf("slot %d: warm objective %v vs cold %v", slots-1, objs[slots-1], ref.Objective)
	}
	var steady time.Duration
	var pivots, sparseSolves, hotHits, abandoned int64
	for slot, st := range stats {
		// An audit rejection surfaces as a warm fallback (the solver
		// re-runs cold), so any fallback anywhere fails the gate.
		if st.WarmHits == 0 || st.SparseSolves == 0 || st.WarmFallbacks != 0 {
			t.Errorf("slot %d was not one clean warm sparse solve: %+v", slot, st)
		}
		if slot >= 2 {
			steady += durs[slot]
			pivots += st.WarmPivots
			sparseSolves += st.SparseSolves
			hotHits += st.WarmHits
		}
		abandoned += st.AbandonedPivots
	}
	updateBenchJSON(t, out, "warm_start", map[string]any{
		"scenario":                  "large-topology-100dc-20class",
		"slots":                     slots,
		"steady_sparse_ns":          steady.Nanoseconds(),
		"sparse_import_slot0_ns":    durs[0].Nanoseconds(),
		"sparse_hot_slot1_ns":       durs[1].Nanoseconds(),
		"sparse_warm_pivots_steady": pivots,
		"sparse_solves_steady":      sparseSolves,
		"hot_hits_steady_sparse":    hotHits,
		"abandoned_pivots":          abandoned,
		"warm_start_mode":           "hot-chain+fresh-start",
	})
}

// TestLargeOutageStartsOver runs the 20×100×3 chain with Refine off (one
// held ~2160-row dispatch LP a slot) through a shape change: six steady
// slots, a slot with center 0 down to no servers, the recovered system and
// one slot more. The outage and the recovery each rebuild the LP once and
// start over on the LU kernel from the all-slack basis, with no fallback,
// to the cold planner's objective within 1e-7; the slot after is hot
// again. Each slot's time is logged against the median of the steady
// ones, ungated: DESIGN §15 states the cost of starting over there.
func TestLargeOutageStartsOver(t *testing.T) {
	if testing.Short() {
		t.Skip("two cold solves of a ~2160-row LP")
	}
	sys := largeTopologySystem()
	p := core.NewOptimized()
	p.Refine, p.Stats = false, &core.SearchStats{}
	cold := core.NewOptimized()
	cold.Refine, cold.WarmStart = false, false
	down := sys.Centers[0].Servers
	servers := []int{down, down, down, down, down, down, 0, down, down}
	took := make([]time.Duration, len(servers))
	for slot := range servers {
		sys.Centers[0].Servers = servers[slot]
		in := largeTopologyInput(sys, slot)
		start := time.Now()
		plan, err := p.Plan(in)
		if took[slot] = time.Since(start); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		switch st := *p.Stats; slot {
		case 6, 7:
			ref, err := cold.Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(plan.Objective - ref.Objective); d > 1e-7*(1+math.Abs(ref.Objective)) {
				t.Fatalf("slot %d: objective %v, the cold planner's %v", slot, plan.Objective, ref.Objective)
			}
			if st.ModelRebuilds != 1 || st.WarmFallbacks != 0 || st.ImportPivots == 0 {
				t.Fatalf("slot %d: %+v, want one rebuild started over without a fallback", slot, st)
			}
		case 8:
			if st.ModelRebuilds != 0 || st.WarmFallbacks != 0 || st.ImportPivots != 0 || st.WarmHits != st.Solves {
				t.Fatalf("slot after the recovery: %+v, want a hot re-solve", st)
			}
		}
	}
	steady := slices.Clone(took[1:6]) // slot 0 arms the chain
	slices.Sort(steady)
	for slot, d := range took {
		t.Logf("slot %d (center 0 at %d servers): %v, %.1f× the steady median %v", slot, servers[slot], d, float64(d)/float64(steady[2]), steady[2])
	}
}
