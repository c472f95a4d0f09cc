package mpc

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/market"
	"profitlb/internal/sim"
	"profitlb/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite ../core/testdata/houston_windows.json (only at a commit whose MPC trajectory is the reference)")

// houstonWindow mirrors internal/core's test type of the same name: one
// window the controller assembled, as core's horizon golden reads it.
type houstonWindow struct {
	Horizon  int           `json:"horizon"`
	Slot     int           `json:"slot"`
	Arrivals [][][]float64 `json:"arrivals"`
	Prices   [][]float64   `json:"prices"`
	MaxDefer []int         `json:"maxDefer"`
	Backlog  [][][]float64 `json:"backlog"`
}

// windowTap records every window its planner solves on the horizon path.
type windowTap struct {
	*Planner
	windows []houstonWindow
}

func (w *windowTap) Plan(in *core.Input) (*core.Plan, error) {
	plan, err := w.Planner.Plan(in)
	p := w.Planner
	// Plan leaves the backlog as its own assembly saw it, and projecting
	// mutates no feed, so assembling again reproduces the window it solved.
	if H := p.effHorizon(in.Slot); err == nil && !p.cfg.myopicOnly() && (H > 1 || !p.backlogEmpty()) {
		hin, _ := p.assembleWindow(in, H)
		w.windows = append(w.windows, houstonWindow{Horizon: p.cfg.Horizon, Slot: in.Slot,
			Arrivals: hin.Arrivals, Prices: hin.Prices, MaxDefer: hin.MaxDefer, Backlog: hin.Backlog})
	}
	return plan, err
}

// TestHoustonWindowsPinned: the windows the controller solves over the
// Houston 13–21 h vibration at horizons 1, 2, 4 and 8 — forecasts, margins,
// carried backlog — are the ones internal/core's horizon golden was
// recorded on. A window that moves means the committed trajectory moved.
func TestHoustonWindowsPinned(t *testing.T) {
	var got []houstonWindow
	for _, horizon := range []int{1, 2, 4, 8} {
		cfg := sim.Config{
			Sys:       unitSys(),
			Traces:    []*workload.Trace{workload.Constant("fe", []float64{300, 200}, 21)},
			Prices:    []*market.PriceTrace{market.Houston()},
			Slots:     8,
			StartSlot: 13,
		}
		tap := &windowTap{Planner: New(Config{Horizon: horizon, MaxDefer: []int{0, 2}, EndSlot: 21})}
		if _, err := sim.Run(cfg, tap); err != nil {
			t.Fatal(err)
		}
		got = append(got, tap.windows...)
	}
	const path = "../core/testdata/houston_windows.json"
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []houstonWindow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("the runs solved %d windows, the file holds %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Horizon != w.Horizon || g.Slot != w.Slot || !reflect.DeepEqual(g.MaxDefer, w.MaxDefer) {
			t.Fatalf("window %d is horizon %d slot %d, the file's horizon %d slot %d", i, g.Horizon, g.Slot, w.Horizon, w.Slot)
		}
		if !near(g.Arrivals, w.Arrivals) || !near(g.Prices, w.Prices) || !near(g.Backlog, w.Backlog) {
			t.Fatalf("horizon %d slot %d: the window moved:\n got %+v\nwant %+v", g.Horizon, g.Slot, g, w)
		}
	}
}

// near compares two nested float slices to 1e-9, a trimmed empty bucket
// list equal to an absent one.
func near(a, b any) bool {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	if av.Kind() == reflect.Float64 {
		return math.Abs(av.Float()-bv.Float()) <= 1e-9
	}
	if av.Len() != bv.Len() {
		return false
	}
	for i := 0; i < av.Len(); i++ {
		if !near(av.Index(i).Interface(), bv.Index(i).Interface()) {
			return false
		}
	}
	return true
}
