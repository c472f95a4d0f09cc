package loadgen

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/fault"
	"profitlb/internal/resilient"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/replay.golden (only at a commit whose replay is the reference)")

// TestReplayGolden pins four replays slot by slot: a clean scenario, a
// flash crowd under the sub-slot controller, the closed loop, and a seeded
// storm under the resilient chain. Per slot it records the offered,
// admitted, budget-shed and unplanned-shed counts, the controller's
// actuations, the realized net profit at %.17g and every lane's admitted
// count. The file was recorded with the single-gateway replay loop (PR 25
// deleted it); the fleet of one that replaced it reproduces it unedited.
func TestReplayGolden(t *testing.T) {
	storm, err := fault.Storm(fault.StormConfig{
		Seed: 3, Slots: 6, Centers: 2, FrontEnds: 2,
		Outages: 2, OutageSlots: 2, Spikes: 2, SpikeFactor: 4, Blackouts: 1, Drops: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, c := range []struct {
		name    string
		slots   int
		faults  *fault.Schedule
		planner core.Planner
		cfg     Config
	}{
		{"clean", 3, nil, core.NewOptimized(), Config{Seed: 1}},
		{"flash+control", 4, flashSchedule(4, 2), core.NewOptimized(), Config{Seed: 17, Control: true}},
		{"closed", 2, nil, core.NewOptimized(), Config{Seed: 2, Closed: true, Users: 16}},
		{"storm+resilient", 6, storm, resilient.Wrap(core.NewOptimized()), Config{Seed: 5}},
	} {
		sc := testSimConfig(c.slots)
		sc.Faults = c.faults
		sc.DegradeOnFailure = c.faults == storm
		c.cfg.Slots = c.slots
		f, src := harness(t, sc, c.planner, nil)
		rep, err := Run(f, src, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, s := range rep.Slots {
			fmt.Fprintf(&got, "%s slot %d: offered %d admitted %d shed-budget %d shed-unplanned %d actuations %d net %.17g lanes",
				c.name, s.Slot, s.Offered, s.Admitted, s.ShedBudget, s.ShedUnplanned, s.Actuations, s.NetProfit)
			for _, ln := range s.Lanes {
				fmt.Fprintf(&got, " %d", ln.Admitted)
			}
			got.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "replay.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update at the reference commit)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("replay moved from %s:\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}
}
