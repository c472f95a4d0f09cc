package exp

import (
	"fmt"
	"sort"
	"strings"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/report"
	"profitlb/internal/sim"
)

// Result is a rendered experiment outcome.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	// Notes carries shape observations (who won, by what factor) that
	// EXPERIMENTS.md records against the paper.
	Notes []string
}

// String renders the whole result as text.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	if len(r.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return b.String()
}

// Experiment is one registered paper artifact reproduction.
type Experiment struct {
	ID    string
	Title string
	// Paper names the table/figure being reproduced.
	Paper string
	Run   func() (*Result, error)
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every registered experiment ordered by ID.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// compare runs the Optimized and Balanced planners over the same
// configuration, the comparison every evaluation figure is built on.
func compare(cfg sim.Config) (opt, bal *sim.Report, err error) {
	reports, err := sim.Compare(cfg, core.NewOptimized(), baseline.NewBalanced())
	if err != nil {
		return nil, nil, err
	}
	return reports[0], reports[1], nil
}

// profitTable renders the per-slot net profit of both approaches plus a
// totals row.
func profitTable(title string, start int, opt, bal *sim.Report) *report.Table {
	t := report.SeriesTable(title, "hour",
		report.SlotLabels(start, len(opt.Slots)),
		[]string{"optimized($)", "balanced($)"},
		opt.NetProfitSeries(), bal.NetProfitSeries())
	t.AddRow("total", report.F(opt.TotalNetProfit()), report.F(bal.TotalNetProfit()))
	return t
}

// gainNote summarizes the Optimized-over-Balanced improvement.
func gainNote(opt, bal *sim.Report) string {
	o, b := opt.TotalNetProfit(), bal.TotalNetProfit()
	if b == 0 {
		return fmt.Sprintf("optimized total $%s, balanced total $0", report.F(o))
	}
	return fmt.Sprintf("optimized improves net profit by %s (%s vs %s)",
		report.Pct(o/b-1), report.F(o), report.F(b))
}
