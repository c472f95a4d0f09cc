package exp

import (
	"strings"
	"testing"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	// One experiment per paper table and figure.
	want := []string{
		"fig1", "tab2", "tab3", "fig4a", "fig4b",
		"fig5", "tab4", "tab5", "tab6", "tab7", "fig6", "fig7",
		"tab8", "tab9", "tab10", "tab11", "fig8", "fig9", "fig10a", "fig10b",
		"fig11",
		// Beyond the paper: the extensions a gate, README or another
		// experiment names.
		"abl13-defer", "rob2-chaos", "rob3-darkfeeds",
		"mpc1-priceshift", "mpc2-faultdefer",
	}
	for _, id := range want {
		e, ok := Get(id)
		if !ok {
			t.Errorf("missing experiment %s", id)
			continue
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Fatalf("result id %q != %q", res.ID, e.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			out := res.String()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s: render missing id", e.ID)
			}
		})
	}
}

// totals sums the served requests of a report.
func totals(r *sim.Report) (offered, served float64) {
	for i := range r.Slots {
		offered += r.Slots[i].Offered()
		served += r.Slots[i].Served()
	}
	return
}

func TestFig4Shapes(t *testing.T) {
	b := NewBasicSetup()
	if err := b.Sys.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, high := range []bool{false, true} {
		opt, bal, err := compare(b.Config(high))
		if err != nil {
			t.Fatal(err)
		}
		if opt.TotalNetProfit() <= bal.TotalNetProfit() {
			t.Fatalf("high=%v: optimized %g not above balanced %g",
				high, opt.TotalNetProfit(), bal.TotalNetProfit())
		}
		if high {
			_, optServed := totals(opt)
			offered, balServed := totals(bal)
			if optServed >= offered*0.999 {
				t.Fatalf("high load should overload even optimized: served %g of %g", optServed, offered)
			}
			ratio := optServed/balServed - 1
			// Paper reports ~16% more requests processed.
			if ratio < 0.08 || ratio > 0.30 {
				t.Fatalf("optimized processes %.1f%% more requests; want the paper's ~16%% band", ratio*100)
			}
		} else {
			offered, served := totals(opt)
			if served < offered*0.999 {
				t.Fatalf("low load: optimized should serve everything, got %g of %g", served, offered)
			}
		}
	}
}

func TestFig6TailConvergence(t *testing.T) {
	ts := NewTraceSetup()
	if err := ts.Sys.Validate(); err != nil {
		t.Fatal(err)
	}
	opt, bal, err := compare(ts.Config())
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalNetProfit() <= bal.TotalNetProfit() {
		t.Fatal("optimized must beat balanced on the trace day")
	}
	// Paper: the approaches converge when the trace tails off.
	last := len(opt.Slots) - 1
	tailGap := opt.Slots[last].NetProfit - bal.Slots[last].NetProfit
	var peakGap float64
	for i := range opt.Slots {
		if g := opt.Slots[i].NetProfit - bal.Slots[i].NetProfit; g > peakGap {
			peakGap = g
		}
	}
	if tailGap > 0.25*peakGap {
		t.Fatalf("tail gap %g not well below peak gap %g", tailGap, peakGap)
	}
}

func TestFig7DC2Starved(t *testing.T) {
	ts := NewTraceSetup()
	opt, _, err := compare(ts.Config())
	if err != nil {
		t.Fatal(err)
	}
	var dc [3]float64
	for i := range opt.Slots {
		for l := 0; l < 3; l++ {
			dc[l] += opt.Slots[i].CenterServed[0][l]
		}
	}
	// Paper: DC2 (farthest) receives far fewer request1 than DC1 and DC3.
	if dc[1] >= dc[0] || dc[1] >= dc[2] {
		t.Fatalf("dc2 %g not starved: dc1 %g, dc3 %g", dc[1], dc[0], dc[2])
	}
	if dc[2] <= dc[0] {
		t.Fatalf("dc3 (fastest for request1) should lead: dc3 %g vs dc1 %g", dc[2], dc[0])
	}
}

func TestFig9CompletionOrdering(t *testing.T) {
	ts := NewTwoLevelSetup()
	if err := ts.Sys.Validate(); err != nil {
		t.Fatal(err)
	}
	opt, bal, err := compare(ts.Config())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if opt.CompletionRate(k) < bal.CompletionRate(k)-1e-9 {
			t.Fatalf("type %d: optimized completion %g below balanced %g",
				k, opt.CompletionRate(k), bal.CompletionRate(k))
		}
	}
	// Paper: optimized completes everything (here ≥ 97%), balanced drops
	// a visible share of request2.
	if opt.CompletionRate(0) < 0.97 {
		t.Fatalf("optimized request1 completion %g too low", opt.CompletionRate(0))
	}
	if bal.CompletionRate(1) > 0.97 {
		t.Fatalf("balanced request2 completion %g should show drops", bal.CompletionRate(1))
	}
	if opt.TotalNetProfit() <= bal.TotalNetProfit() {
		t.Fatal("optimized must net more profit")
	}
}

func TestFig10BothRegimes(t *testing.T) {
	for _, scale := range []float64{2.0, 0.5} {
		ts := NewTwoLevelSetupScaled(scale)
		opt, bal, err := compare(ts.Config())
		if err != nil {
			t.Fatal(err)
		}
		if opt.TotalNetProfit() <= bal.TotalNetProfit() {
			t.Fatalf("scale %g: optimized %g not above balanced %g",
				scale, opt.TotalNetProfit(), bal.TotalNetProfit())
		}
		if scale > 1 {
			// Low workload: everything completes under both approaches.
			for k := 0; k < 2; k++ {
				if opt.CompletionRate(k) < 0.999 || bal.CompletionRate(k) < 0.999 {
					t.Fatalf("scale %g: expected full completion, got opt %g bal %g",
						scale, opt.CompletionRate(k), bal.CompletionRate(k))
				}
			}
		} else {
			// High workload: nobody completes everything.
			if opt.CompletionRate(0)+opt.CompletionRate(1) >= 1.999 {
				t.Fatalf("scale %g: optimized should not complete everything", scale)
			}
		}
	}
}

func TestFig8GapTracksSpread(t *testing.T) {
	ts := NewTwoLevelSetup()
	opt, bal, err := compare(ts.Config())
	if err != nil {
		t.Fatal(err)
	}
	// Per-slot: optimized never below balanced in the window.
	for i := range opt.Slots {
		if opt.Slots[i].NetProfit < bal.Slots[i].NetProfit-1e-6 {
			t.Fatalf("slot %d: optimized below balanced", i)
		}
	}
}

func TestPlanOnce(t *testing.T) {
	o := core.NewOptimized()
	d, err := PlanOnce(3, o)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("non-positive duration")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate id")
		}
	}()
	register(&Experiment{ID: "fig1"})
}

// TestAblationInvariants holds the design-choice findings on the Section
// VII window: branch-and-bound level search equals exhaustive and greedy
// never beats it, subset refinement never hurts, and the per-server layout
// nets what the aggregated one does on homogeneous servers.
func TestAblationInvariants(t *testing.T) {
	ts := NewTwoLevelSetup()
	cfg := ts.Config()

	// Branch-and-bound must equal exhaustive; greedy must not exceed it.
	profits := map[core.Strategy]float64{}
	for _, s := range []core.Strategy{core.Exhaustive, core.Greedy, core.BranchBound} {
		p := core.NewLevelSearch()
		p.Strategy = s
		rep, err := sim.Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		profits[s] = rep.TotalNetProfit()
	}
	if d := profits[core.BranchBound] - profits[core.Exhaustive]; d > 1e-6 || d < -1e-6 {
		t.Fatalf("b&b %g != exhaustive %g", profits[core.BranchBound], profits[core.Exhaustive])
	}
	if profits[core.Greedy] > profits[core.Exhaustive]+1e-6 {
		t.Fatal("greedy exceeded exhaustive")
	}

	// Refinement must never hurt.
	on := core.NewOptimized()
	off := core.NewOptimized()
	off.Refine = false
	repOn, err := sim.Run(cfg, on)
	if err != nil {
		t.Fatal(err)
	}
	repOff, err := sim.Run(cfg, off)
	if err != nil {
		t.Fatal(err)
	}
	if repOn.TotalNetProfit() < repOff.TotalNetProfit()-1e-6 {
		t.Fatalf("refinement hurt: %g vs %g", repOn.TotalNetProfit(), repOff.TotalNetProfit())
	}

	// Per-server and aggregated layouts agree on homogeneous servers.
	ps := core.NewOptimized()
	ps.PerServer = true
	repPS, err := sim.Run(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	rel := (repOn.TotalNetProfit() - repPS.TotalNetProfit()) / repOn.TotalNetProfit()
	if rel > 1e-4 || rel < -1e-4 {
		t.Fatalf("layouts disagree: aggregated %g vs per-server %g", repOn.TotalNetProfit(), repPS.TotalNetProfit())
	}
}

// TestAblBaselinesOptimizedOnTop: on the Section VI day every static
// dispatch order — price (the paper's Balanced), distance, unit profit and
// a seeded random one — nets at most what the per-slot optimization nets.
func TestAblBaselinesOptimizedOnTop(t *testing.T) {
	reports, err := sim.Compare(NewTraceSetup().Config(), core.NewOptimized(),
		baseline.NewBalanced(), baseline.NewNearest(), baseline.NewGreedyProfit(), baseline.NewRandom(42))
	if err != nil {
		t.Fatal(err)
	}
	opt := reports[0].TotalNetProfit()
	for _, r := range reports[1:] {
		if r.TotalNetProfit() > opt {
			t.Errorf("%s nets %g, above optimized's %g", r.Planner, r.TotalNetProfit(), opt)
		}
	}
}
