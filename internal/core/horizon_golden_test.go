package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"profitlb/internal/datacenter"
	"profitlb/internal/lp"
	"profitlb/internal/tuf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/horizon.golden (only at a commit whose window optima are the reference)")

// goldenWindow is one solved window as testdata/horizon.golden keeps it.
type goldenWindow struct {
	Name      string      `json:"name"`
	Objective float64     `json:"objective"`
	Served    [][]float64 `json:"served"` // [slot][class]
	Deferred  []float64   `json:"deferredFraction"`
}

// houstonWindow is one window of the Houston 13–21 h MPC run as
// testdata/houston_windows.json keeps it: the inputs internal/mpc
// assembled (its TestHoustonWindowsPinned writes and re-checks the file),
// so the optimum of a real rolling run is pinned here without this
// package importing the controller.
type houstonWindow struct {
	Horizon  int           `json:"horizon"`
	Slot     int           `json:"slot"`
	Arrivals [][][]float64 `json:"arrivals"`
	Prices   [][]float64   `json:"prices"`
	MaxDefer []int         `json:"maxDefer"`
	Backlog  [][][]float64 `json:"backlog"`
}

// vibrationSys is the MPC acceptance system (internal/mpc's unitSys): a web
// class that always pays and an energy-heavy batch class that the Houston
// afternoon spikes price out.
func vibrationSys() *datacenter.System {
	return &datacenter.System{
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
}

// horizonChainLen is how many sliding windows the fleet chain has.
const horizonChainLen = 12

// horizonChain is window w of the fleet chain: four slots of the 6×10×3
// determinism fixture sliding one slot a window, the load swinging between
// a third and three times the fixture's so that capacity binds in some
// slots and not in their neighbours, every odd class deferrable by two
// slots, and a carried backlog that appears at window 4, thins and is gone
// again from window 8.
func horizonChain(base *Input, w int) *HorizonInput {
	sys := base.Sys
	h := &HorizonInput{Sys: sys, MaxDefer: make([]int, sys.K())}
	for k := range h.MaxDefer {
		h.MaxDefer[k] = 2 * (k % 2)
	}
	h.Arrivals, h.Prices = horizonChainSlots(base, w, 4)
	if buckets, ok := map[int][]float64{4: {30, 20}, 5: {0, 45}, 6: {12}, 7: {0, 8}}[w]; ok {
		h.Backlog = make([][][]float64, sys.S())
		for s := range h.Backlog {
			h.Backlog[s] = make([][]float64, sys.K())
			for k := 1; k < sys.K(); k += 2 {
				for _, v := range buckets {
					h.Backlog[s][k] = append(h.Backlog[s][k], v*(1+0.1*float64(s+k)))
				}
			}
		}
	}
	return h
}

// horizonChainSlots is n slots of the fleet chain from slot at on.
func horizonChainSlots(base *Input, at, n int) (arrivals [][][]float64, prices [][]float64) {
	for t := at; t < at+n; t++ {
		in := chainInput(base, t, []float64{1, 3, 0.35, 2}[t%4])
		arrivals, prices = append(arrivals, in.Arrivals), append(prices, in.Prices)
	}
	return arrivals, prices
}

// goldenWindows lists every window the golden pins, by name.
func goldenWindows(t *testing.T) (names []string, windows []*HorizonInput) {
	add := func(name string, h *HorizonInput) { names, windows = append(names, name), append(windows, h) }
	for n := 4; n <= 8; n++ {
		for _, d := range []int{0, 2, 3} {
			h := deferScenario(n)
			h.MaxDefer = []int{0, d}
			add(fmt.Sprintf("deferScenario(%d)/defer=%d", n, d), h)
		}
	}
	add("backlogScenario(5)", backlogScenario(5))
	raw, err := os.ReadFile("testdata/houston_windows.json")
	if err != nil {
		t.Fatal(err)
	}
	var houston []houstonWindow
	if err := json.Unmarshal(raw, &houston); err != nil {
		t.Fatal(err)
	}
	sys := vibrationSys()
	for _, hw := range houston {
		add(fmt.Sprintf("houston/horizon=%d/slot=%d", hw.Horizon, hw.Slot),
			&HorizonInput{Sys: sys, Arrivals: hw.Arrivals, Prices: hw.Prices, MaxDefer: hw.MaxDefer, Backlog: hw.Backlog})
	}
	base := synthInput(6, 10, 3)
	for w := 0; w < horizonChainLen; w++ {
		add(fmt.Sprintf("fleet-6x10x3/window=%d", w), horizonChain(base, w))
	}
	return names, windows
}

// TestHorizonGolden holds the window LP to optima recorded before it was
// recomposed from slot blocks: the optimum is formulation-independent, so
// every window's objective must agree to 1e-7 relative and the plan must
// verify at 1e-6. A per-slot quantity may move only as an alternate
// optimum — the window objective equal to 1e-9 — and is logged when it does.
func TestHorizonGolden(t *testing.T) {
	names, windows := goldenWindows(t)
	got := make([]goldenWindow, len(windows))
	for i, h := range windows {
		hp, err := PlanHorizon(h, lp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if err := VerifyHorizon(h, hp, 1e-6); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		g := goldenWindow{Name: names[i], Objective: hp.Objective, Deferred: hp.DeferredFraction}
		for _, plan := range hp.Slots {
			served := make([]float64, h.Sys.K())
			for k := range served {
				served[k] = plan.Served(k)
			}
			g.Served = append(g.Served, served)
		}
		got[i] = g
	}
	const path = "testdata/horizon.golden"
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
	var want []goldenWindow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d windows, the test solves %d", len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name || len(g.Served) != len(w.Served) {
			t.Fatalf("window %d is %s over %d slots, golden %s over %d", i, g.Name, len(g.Served), w.Name, len(w.Served))
		}
		gap := math.Abs(g.Objective-w.Objective) / (1 + math.Abs(w.Objective))
		if gap > 1e-7 {
			t.Fatalf("%s: objective %.12g, golden %.12g", g.Name, g.Objective, w.Objective)
		}
		moved := func(what string, a, b float64) {
			if math.Abs(a-b) <= 1e-6 {
				return
			}
			if gap > 1e-9 {
				t.Fatalf("%s: %s %.9g, golden %.9g, and the objectives differ (%.12g vs %.12g)", g.Name, what, a, b, g.Objective, w.Objective)
			}
			t.Logf("%s: alternate optimum, %s %.9g where the golden has %.9g", g.Name, what, a, b)
		}
		for slot := range g.Served {
			for k := range g.Served[slot] {
				moved(fmt.Sprintf("slot %d class %d served", slot, k), g.Served[slot][k], w.Served[slot][k])
			}
		}
		for k := range g.Deferred {
			moved(fmt.Sprintf("class %d deferred fraction", k), g.Deferred[k], w.Deferred[k])
		}
	}
}
