package profitlb

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/resilient"
)

var updateDeterminism = flag.Bool("update", false, "rewrite testdata/determinism.golden (deliberately: it pins every solver count and objective)")

// TestSlotChainDeterminism is the "nothing numerical moves" harness: it
// drives the resilient chain over the default planner through three slot
// sequences — 36 slots of a 6×10×3 two-level system with refine on
// (demand-limited: the dual bound turns every move down and a slot is two
// LPs), 12 slots of the same at three times the arrivals (capacity-
// limited: ~135 moves a slot survive the bound and are solved from their
// incumbents' bases, on the LU kernel) and 12 slots of the 20×100×3 one
// with refine off (one hot sparse re-solve a slot) — and compares every
// call's solver counters and %.17g objective with a golden file. A change that claims to move no number regenerates nothing; one
// that moves pivots or round-off on purpose runs `go test -run
// TestSlotChainDeterminism -update .` and says so.
func TestSlotChainDeterminism(t *testing.T) {
	const golden = "testdata/determinism.golden"
	chains := []struct {
		name    string
		K, L, S int
		slots   int
		load    float64 // arrivals scale
		refine  bool
	}{
		{"refine-6x10x3", 6, 10, 3, 36, 1, true},
		{"refine-x3-6x10x3", 6, 10, 3, 12, 3, true},
		{"hot-20x100x3", 20, 100, 3, 12, 1, false},
	}
	var out bytes.Buffer
	for _, c := range chains {
		sys := synthTopology(c.K, c.L, c.S)
		var stats core.SearchStats
		o := core.NewOptimized()
		o.Refine, o.Stats = c.refine, &stats
		chain := resilient.Wrap(o)
		for slot := 0; slot < c.slots; slot++ {
			in := largeTopologyInput(sys, slot)
			for s := range in.Arrivals {
				for k := range in.Arrivals[s] {
					in.Arrivals[s][k] *= c.load
				}
			}
			plan, err := chain.Plan(in)
			if err != nil {
				t.Fatalf("%s slot %d: %v", c.name, slot, err)
			}
			if tier, name, _ := chain.FallbackState(); tier != 0 {
				t.Fatalf("%s slot %d: committed by tier %d (%s)", c.name, slot, tier, name)
			}
			fmt.Fprintf(&out, "%s slot=%d solves=%d cacheHits=%d bounded=%d warmHits=%d warmFallbacks=%d warmPivots=%d coldPivots=%d abandonedPivots=%d sparseSolves=%d obj=%.17g\n",
				c.name, slot, stats.Solves, stats.CacheHits, stats.Bounded, stats.WarmHits, stats.WarmFallbacks,
				stats.WarmPivots, stats.ColdPivots, stats.AbandonedPivots, stats.SparseSolves, plan.Objective)
		}
	}
	got := out.String()
	if *updateDeterminism {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	diffLines(t, got, string(data))
}

// diffLines reports the first few lines on which got and want differ.
func diffLines(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	shown := 0
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl, wl)
			if shown++; shown == 5 {
				break
			}
		}
	}
	t.Fatal("solver counters or objectives moved (see -update)")
}
