package exp

import (
	"fmt"

	"profitlb/internal/queue"
	"profitlb/internal/report"
	"profitlb/internal/stats"
	"profitlb/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "val5-arrivals",
		Title: "Validation: M/M/1 plans under bursty (MMPP) arrivals",
		Paper: "beyond the paper (arrival-process robustness)",
		Run:   runValArrivals,
	})
}

// runValArrivals replays a planned Section VII commodity queue under
// Markov-modulated Poisson arrivals of increasing burstiness while
// keeping the long-run rate fixed at the planned λ. The paper assumes
// plain Poisson arrivals within a slot; the index of dispersion measures
// how far each process strays from that, and the realized delay shows
// what the stray costs.
func runValArrivals() (*Result, error) {
	ts := NewTwoLevelSetup()
	plan, err := ts.planPeakSlot()
	if err != nil {
		return nil, err
	}
	// Pick the most loaded commodity queue in the plan.
	var lam, mu, deadline float64
	for l := 0; l < ts.Sys.L(); l++ {
		for k := 0; k < ts.Sys.K(); k++ {
			for q := range plan.Rate[k] {
				v := plan.CenterRate(k, q, l)
				if v > lam*float64(plan.ServersOn[l]) && plan.ServersOn[l] > 0 {
					lam = v / float64(plan.ServersOn[l])
					mu = plan.Phi[l][k][q] * ts.Sys.Centers[l].Capacity * ts.Sys.Centers[l].ServiceRate[k]
					deadline = ts.Sys.Classes[k].TUF.Level(q).Deadline
				}
			}
		}
	}
	if lam == 0 {
		return nil, fmt.Errorf("val5: no loaded commodity found")
	}

	t := report.NewTable(fmt.Sprintf("Arrival burstiness sweep on the hottest planned queue (λ=%s/h, μ=%s/h)",
		report.F(lam), report.F(mu)),
		"process", "dispersion index", "mean delay(h)", "p95 delay(h)", "vs planned deadline")
	horizon := 400.0 // hours of synthetic arrivals
	type variant struct {
		name string
		p    workload.MMPP
	}
	variants := []variant{
		{"poisson (paper)", workload.MMPP{RateLow: lam, RateHigh: lam, MeanLow: 1, MeanHigh: 1}},
		{"mild bursts", workload.MMPP{RateLow: lam * 0.7, RateHigh: lam * 1.9, MeanLow: 0.75, MeanHigh: 0.25}},
		{"heavy bursts", workload.MMPP{RateLow: lam * 0.4, RateHigh: lam * 2.8, MeanLow: 0.75, MeanHigh: 0.25}},
	}
	var first, last float64
	for i, v := range variants {
		arr, err := v.p.Arrivals(horizon, 404)
		if err != nil {
			return nil, err
		}
		delays, err := queue.Sim{Mu: mu, Seed: 405}.RunArrivals(arr)
		if err != nil {
			return nil, err
		}
		st, err := stats.Summarize(delays)
		if err != nil {
			return nil, err
		}
		disp, err := v.p.Burstiness(1, int(horizon), 406)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, report.F(disp), report.F(st.Mean), report.F(st.P95),
			report.Pct(st.Mean/deadline))
		if i == 0 {
			first = st.Mean
		}
		last = st.Mean
	}
	return &Result{
		ID: "val5-arrivals", Title: "Arrival burstiness",
		Tables: []*report.Table{t},
		Notes: []string{
			fmt.Sprintf("with the same long-run rate, bursty arrivals inflate the mean delay x%s over the Poisson assumption", report.F(last/first)),
			"the mechanism: the planner reserves exactly the share that meets the deadline at Poisson arrivals, leaving the queue at high utilization — burst phases transiently exceed the reserved capacity and the backlog explodes until the quiet phase drains it; a deployment facing non-Poisson traffic needs a share margin (cf. abl14) or burst-aware admission",
		},
	}, nil
}
