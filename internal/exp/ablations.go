package exp

import (
	"fmt"
	"time"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/forecast"
	"profitlb/internal/report"
	"profitlb/internal/sim"
	"profitlb/internal/workload"
)

// The abl* experiments go beyond the paper: they ablate the design
// choices DESIGN.md §5 calls out, on the paper's own Section VII setup,
// so each knob's contribution is measurable in isolation.

func init() {
	register(&Experiment{
		ID:    "abl1-levelsearch",
		Title: "Ablation: level-search strategies (exhaustive / greedy / branch-and-bound)",
		Paper: "beyond the paper (DESIGN.md §5.1)",
		Run:   runAblLevelSearch,
	})
	register(&Experiment{
		ID:    "abl2-refine",
		Title: "Ablation: commodity-subset refinement on/off",
		Paper: "beyond the paper (DESIGN.md §5.5)",
		Run:   runAblRefine,
	})
	register(&Experiment{
		ID:    "abl3-aggregation",
		Title: "Ablation: aggregated vs per-server LP variables",
		Paper: "beyond the paper (DESIGN.md §5.3)",
		Run:   runAblAggregation,
	})
	register(&Experiment{
		ID:    "abl5-forecast",
		Title: "Ablation: planning on Kalman-predicted vs oracle arrival rates",
		Paper: "beyond the paper (the prediction substrate of paper §III)",
		Run:   runAblForecast,
	})
	register(&Experiment{
		ID:    "abl6-baselines",
		Title: "Ablation: all static baselines vs the optimized planner",
		Paper: "beyond the paper (baseline ordering policies)",
		Run:   runAblBaselines,
	})
}

// runPlanner runs one planner over the Section VII window and reports
// profit and wall time.
func runPlanner(p core.Planner) (profit float64, elapsed time.Duration, err error) {
	ts := NewTwoLevelSetup()
	start := time.Now()
	rep, err := sim.Run(ts.Config(), p)
	if err != nil {
		return 0, 0, err
	}
	return rep.TotalNetProfit(), time.Since(start), nil
}

func runAblLevelSearch() (*Result, error) {
	t := report.NewTable("Level-search strategies on the Section VII window",
		"strategy", "net profit($)", "wall time")
	strategies := []core.Strategy{core.Exhaustive, core.Greedy, core.BranchBound}
	profits := make([]float64, len(strategies))
	for i, s := range strategies {
		p := core.NewLevelSearch()
		p.Strategy = s
		profit, elapsed, err := runPlanner(p)
		if err != nil {
			return nil, err
		}
		profits[i] = profit
		t.AddRow(s.String(), report.F(profit), elapsed.Round(time.Microsecond).String())
	}
	notes := []string{
		"branch-and-bound matches exhaustive exactly; greedy is a lower bound",
	}
	if profits[2] != profits[0] {
		notes = append(notes, fmt.Sprintf("WARNING: b&b %g differs from exhaustive %g", profits[2], profits[0]))
	}
	return &Result{ID: "abl1-levelsearch", Title: "Level-search strategies",
		Tables: []*report.Table{t}, Notes: notes}, nil
}

func runAblRefine() (*Result, error) {
	t := report.NewTable("Subset refinement", "refine", "net profit($)", "wall time")
	var with, without float64
	for _, refine := range []bool{true, false} {
		p := core.NewOptimized()
		p.Refine = refine
		profit, elapsed, err := runPlanner(p)
		if err != nil {
			return nil, err
		}
		if refine {
			with = profit
		} else {
			without = profit
		}
		t.AddRow(fmt.Sprintf("%v", refine), report.F(profit), elapsed.Round(time.Microsecond).String())
	}
	return &Result{ID: "abl2-refine", Title: "Subset refinement",
		Tables: []*report.Table{t},
		Notes: []string{fmt.Sprintf(
			"refinement recovers %s net profit by evicting reservation-heavy commodities (the paper's zero-load deadline reservation artifact)",
			report.Pct(with/without-1))},
	}, nil
}

func runAblAggregation() (*Result, error) {
	t := report.NewTable("Variable layout", "layout", "net profit($)", "wall time")
	var profits []float64
	for _, perServer := range []bool{false, true} {
		p := core.NewOptimized()
		p.PerServer = perServer
		name := "aggregated"
		if perServer {
			name = "per-server (paper-faithful)"
		}
		profit, elapsed, err := runPlanner(p)
		if err != nil {
			return nil, err
		}
		profits = append(profits, profit)
		t.AddRow(name, report.F(profit), elapsed.Round(time.Microsecond).String())
	}
	return &Result{ID: "abl3-aggregation", Title: "Aggregated vs per-server variables",
		Tables: []*report.Table{t},
		Notes: []string{fmt.Sprintf(
			"identical profit (homogeneous servers make the layouts equivalent; gap %.4f%%), very different cost — the paper's Fig. 11 in miniature",
			100*(profits[0]/profits[1]-1))},
	}, nil
}

func runAblForecast() (*Result, error) {
	ts := NewTraceSetup()
	oracleCfg := ts.Config()
	oracle, err := sim.Run(oracleCfg, core.NewOptimized())
	if err != nil {
		return nil, err
	}
	predicted := make([]*workload.Trace, len(ts.Traces))
	var mapeSum float64
	for i, tr := range ts.Traces {
		p, err := forecast.PredictTrace(tr, 50000, 20000)
		if err != nil {
			return nil, err
		}
		predicted[i] = p
		m, err := forecast.MAPE(tr, p)
		if err != nil {
			return nil, err
		}
		mapeSum += m
	}
	// Plan on forecasts, account on actual arrivals: under-forecast drops
	// the uncovered tail, over-forecast wastes reservations.
	fcCfg := oracleCfg
	fcCfg.PlanTraces = predicted
	fc, err := sim.Run(fcCfg, core.NewOptimized())
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Planning on forecasts (Section VI day)",
		"input", "net profit($)", "fraction of oracle")
	t.AddRow("oracle rates", report.F(oracle.TotalNetProfit()), "100.00%")
	t.AddRow("Kalman one-step forecasts", report.F(fc.TotalNetProfit()),
		report.Pct(report.Frac(fc.TotalNetProfit(), oracle.TotalNetProfit())))
	return &Result{ID: "abl5-forecast", Title: "Forecast-driven planning",
		Tables: []*report.Table{t},
		Notes: []string{fmt.Sprintf(
			"mean MAPE of the forecasts: %s; planning on them keeps %s of the oracle profit (under-forecasted arrivals are dropped, over-forecasts waste reservations)",
			report.Pct(report.Frac(mapeSum, float64(len(ts.Traces)))),
			report.Pct(report.Frac(fc.TotalNetProfit(), oracle.TotalNetProfit())))},
	}, nil
}

func runAblBaselines() (*Result, error) {
	ts := NewTraceSetup()
	planners := []core.Planner{
		core.NewOptimized(),
		baseline.NewBalanced(),
		baseline.NewNearest(),
		baseline.NewGreedyProfit(),
		baseline.NewRandom(42),
	}
	reports, err := sim.Compare(ts.Config(), planners...)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("All dispatchers on the Section VI day",
		"planner", "net profit($)", "vs optimized")
	opt := reports[0].TotalNetProfit()
	for _, r := range reports {
		t.AddRow(r.Planner, report.F(r.TotalNetProfit()), report.Pct(r.TotalNetProfit()/opt))
	}
	return &Result{ID: "abl6-baselines", Title: "Baseline ordering policies",
		Tables: []*report.Table{t},
		Notes:  []string{"every static ordering loses to the per-slot optimization; price-only ordering (the paper's Balanced) is the strongest static policy here"},
	}, nil
}
