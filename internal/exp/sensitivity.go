package exp

import (
	"fmt"

	"profitlb/internal/core"
	"profitlb/internal/queue"
	"profitlb/internal/report"
)

func init() {
	register(&Experiment{
		ID:    "abl7-shadowprices",
		Title: "Extension: shadow prices of CPU share and demand (LP duals)",
		Paper: "beyond the paper (capacity-planning sensitivity)",
		Run:   runAblShadowPrices,
	})
	register(&Experiment{
		ID:    "val2-utility",
		Title: "Validation: mean-delay vs per-request TUF utility semantics",
		Paper: "beyond the paper (SLA semantics, cf. paper refs [17][23])",
		Run:   runValUtility,
	})
}

// runAblShadowPrices prices the scarce resources of the Section VI day
// hour by hour: the dual of each center's share constraint says what one
// more unit of per-server CPU share would earn, i.e. where expansion pays.
func runAblShadowPrices() (*Result, error) {
	ts := NewTraceSetup()
	sys := ts.Sys
	planner := core.NewOptimized()
	L := sys.L()
	series := make([][]float64, L)
	names := make([]string, L)
	for l := 0; l < L; l++ {
		series[l] = make([]float64, 24)
		names[l] = sys.Centers[l].Name + "($/share)"
	}
	totals := make([]float64, L)
	for slot := 0; slot < 24; slot++ {
		arr := make([][]float64, sys.S())
		for s := 0; s < sys.S(); s++ {
			arr[s] = make([]float64, sys.K())
			for k := 0; k < sys.K(); k++ {
				arr[s][k] = ts.Traces[s].At(slot, k)
			}
		}
		prices := make([]float64, L)
		for l := 0; l < L; l++ {
			prices[l] = ts.Prices[l].At(slot)
		}
		sens, err := planner.Sensitivity(&core.Input{Sys: sys, Arrivals: arr, Prices: prices})
		if err != nil {
			return nil, err
		}
		for l := 0; l < L; l++ {
			series[l][slot] = sens.ShareValue[l]
			totals[l] += sens.ShareValue[l]
		}
	}
	t := report.SeriesTable("Hourly shadow price of per-server CPU share", "hour",
		report.SlotLabels(0, 24), names, series...)
	best, bestV := 0, totals[0]
	for l := 1; l < L; l++ {
		if totals[l] > bestV {
			best, bestV = l, totals[l]
		}
	}
	sum := report.NewTable("Day totals", "center", "Σ share value($)")
	for l := 0; l < L; l++ {
		sum.AddRow(sys.Centers[l].Name, report.F(totals[l]))
	}
	return &Result{
		ID: "abl7-shadowprices", Title: "Shadow prices",
		Tables: []*report.Table{t, sum},
		Notes: []string{fmt.Sprintf(
			"%s has the highest accumulated share value ($%s/day): the LP duals point there for expansion",
			sys.Centers[best].Name, report.F(bestV))},
	}, nil
}

// runValUtility quantifies the gap between the paper's mean-delay SLA
// semantics (utility of the expected delay) and per-request TUF semantics
// (expected utility of each request's delay) on a planned Section VII
// slot, via discrete-event replay.
func runValUtility() (*Result, error) {
	ts := NewTwoLevelSetup()
	plan, err := ts.planPeakSlot()
	if err != nil {
		return nil, err
	}
	const arrivals = 300000
	checks, err := queue.UtilityGap(ts.Sys, plan, arrivals, 515)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Utility semantics on realized delays (%d arrivals per queue)", arrivals),
		"center", "type", "level", "rate(#/h)", "U(E[R]) $", "E[U(R)] $", "per-request share")
	for _, c := range checks {
		ratio := 0.0
		if c.MeanDelayUtility > 0 {
			ratio = c.PerRequestUtility / c.MeanDelayUtility
		}
		t.AddRow(
			ts.Sys.Centers[c.Center].Name,
			ts.Sys.Classes[c.Class].Name,
			fmt.Sprintf("%d", c.Level+1),
			report.F(c.Rate),
			report.F(c.MeanDelayUtility), report.F(c.PerRequestUtility),
			report.Pct(ratio))
	}
	meanRev, perRev := queue.RevenueRates(checks)
	return &Result{
		ID: "val2-utility", Title: "Utility semantics gap",
		Tables: []*report.Table{t},
		Notes: []string{
			fmt.Sprintf("slot revenue rate: $%s/h under the paper's mean-delay SLA vs $%s/h if billed per request (%s)",
				report.F(meanRev), report.F(perRev), report.Pct(perRev/meanRev)),
			"the two semantics diverge in both directions: top-level commodities lose their exponential delay tail to lower levels, while commodities planned at a loose level serve many individual requests fast enough to earn the higher step — the quantitative difference between this paper's mean-delay SLA and per-job TUF scheduling (its ref [17])",
		},
	}, nil
}
