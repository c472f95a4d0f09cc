package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden dispatch-LP exports")

// TestDispatchModelGolden pins the aggregated dispatch LP — variable
// names, column order, row order, coefficients — byte for byte: the
// exports under testdata were written before the dispatch-LP builder
// learned the per-server layout, and every slot of the Section VI day and
// of the two-level window must still export exactly that text.
func TestDispatchModelGolden(t *testing.T) {
	for name, cfg := range map[string]sim.Config{
		"dispatch_section6.lp": NewTraceSetup().Config(),
		"dispatch_twolevel.lp": NewTwoLevelSetup().Config(),
	} {
		src, err := sim.NewInputSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		for slot := cfg.StartSlot; slot < cfg.StartSlot+cfg.Slots; slot++ {
			in, err := src.PlannerInput(slot)
			if err != nil {
				t.Fatalf("%s slot %d: %v", name, slot, err)
			}
			m, err := core.DispatchModel(in)
			if err != nil {
				t.Fatalf("%s slot %d: %v", name, slot, err)
			}
			if err := m.WriteLPFormat(&got); err != nil {
				t.Fatalf("%s slot %d: %v", name, slot, err)
			}
		}
		path := filepath.Join("testdata", name)
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
			t.Fatalf("%s: dispatch LP export drifted from the golden file", name)
		}
	}
}
