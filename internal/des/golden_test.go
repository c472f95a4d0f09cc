package des_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/des"
	"profitlb/internal/exp"
)

var updateGolden = flag.Bool("update", false, "rewrite the realized-run golden")

// TestRealizedGolden pins what the request-level run realizes — served
// counts, deadline misses and dollars per slot — on the Section VII
// window thinned to a quarter of its load, under CV = 0.5 (Erlang-4),
// exponential and CV = 2 (hyperexponential) service. Every figure follows
// from the order in which the per-commodity queues draw arrivals and
// service times from the one seeded generator, so the file changes only if
// that order does.
func TestRealizedGolden(t *testing.T) {
	var got bytes.Buffer
	for _, cv := range []float64{0.5, 1, 2} {
		cfg := des.Thin(des.Config{
			Sim:       exp.NewTwoLevelSetup().Config(),
			Planner:   core.NewOptimized(),
			Seed:      4242,
			ServiceCV: cv,
		}, 0.25)
		rep, err := des.Run(cfg)
		if err != nil {
			t.Fatalf("cv=%g: %v", cv, err)
		}
		fmt.Fprintf(&got, "# service CV %g\n", cv)
		for _, sr := range rep.Slots {
			fmt.Fprintf(&got, "slot %d", sr.Slot)
			for _, cs := range sr.Classes {
				fmt.Fprintf(&got, " served=%d misses=%d", cs.Served, cs.DeadlineMisses)
			}
			fmt.Fprintf(&got, " realized=%.17g\n", sr.RealizedNetProfit)
		}
	}
	path := filepath.Join("testdata", "realized.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it at the parent commit with -update)", err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("realized run drifted from the golden file:\n%s", got.Bytes())
	}
}
