package control

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"profitlb/internal/dispatch"
)

// benchLoop builds a controller over the scripted plant, armed on the
// wire fixture.
func benchLoop(tb testing.TB) (*Controller, *fakePlant, *dispatch.Table) {
	tb.Helper()
	tab := wireTable(tb)
	plant := newFakePlant(tab)
	ctrl := NewController(dispatch.Config{SlotSeconds: 60}, plant, nil)
	ctrl.BeginSlot(tab, 0, nil)
	return ctrl, plant, tab
}

// BenchmarkControlTickQuiet times the common case: demand on plan, every
// stream inside the dead band, nothing published. This is the
// steady-state cost the control loop adds per tick.
func BenchmarkControlTickQuiet(b *testing.B) {
	ctrl, plant, tab := benchLoop(b)
	const wd = 7.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plant.addDemand(tab, 0, 0, 1.0, wd)
		plant.addDemand(tab, 0, 1, 1.0, wd)
		plant.addDemand(tab, 1, 0, 1.0, wd)
		ctrl.Tick(float64(i+1) * wd)
	}
}

// BenchmarkControlTickActuate times the worst case: demand flips far
// outside the dead band every tick, so each tick re-scales the table,
// rebuilds the alias structures, and publishes.
func BenchmarkControlTickActuate(b *testing.B) {
	ctrl, plant, tab := benchLoop(b)
	const wd = 7.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratio := 2.0
		if i&1 == 1 {
			ratio = 0.5
		}
		plant.addDemand(tab, 0, 0, ratio, wd)
		plant.addDemand(tab, 0, 1, ratio, wd)
		plant.addDemand(tab, 1, 0, 1.0, wd)
		ctrl.Tick(float64(i+1) * wd)
	}
	if ctrl.Actuations() == 0 {
		b.Fatal("actuating benchmark never actuated")
	}
}

// TestControlTickTrajectory measures both tick modes and upserts the
// point into the file named by BENCH_DISPATCH_JSON under the
// "control_tick" key (skipped when unset; `make bench` sets it), next to
// the dispatch hot-path trajectory the controller rides on.
func TestControlTickTrajectory(t *testing.T) {
	out := os.Getenv("BENCH_DISPATCH_JSON")
	if out == "" {
		t.Skip("set BENCH_DISPATCH_JSON=FILE to record the benchmark trajectory")
	}
	const wd = 7.5
	measure := func(actuate bool) (nsPerOp float64, actuations int) {
		const n = 20000
		best := time.Duration(1 << 62)
		var acts int
		for round := 0; round < 3; round++ {
			ctrl, plant, tab := benchLoop(t)
			start := time.Now()
			for i := 0; i < n; i++ {
				ratio := 1.0
				if actuate {
					ratio = 2.0
					if i&1 == 1 {
						ratio = 0.5
					}
				}
				plant.addDemand(tab, 0, 0, ratio, wd)
				plant.addDemand(tab, 0, 1, ratio, wd)
				plant.addDemand(tab, 1, 0, 1.0, wd)
				ctrl.Tick(float64(i+1) * wd)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			acts = ctrl.Actuations()
		}
		return float64(best.Nanoseconds()) / n, acts
	}
	quietNs, quietActs := measure(false)
	if quietActs != 0 {
		t.Errorf("quiet trajectory actuated %d times, want 0", quietActs)
	}
	actNs, actActs := measure(true)
	if actActs == 0 {
		t.Error("actuating trajectory never actuated")
	}
	updateBenchJSON(t, out, "control_tick", map[string]any{
		"bench":              "control-tick",
		"scenario":           "2x2 wire fixture, 4 lanes",
		"quiet_ns_per_op":    quietNs,
		"actuate_ns_per_op":  actNs,
		"actuations_per_20k": actActs,
	})
}

// updateBenchJSON read-modify-writes one top-level section of the shared
// benchmark trajectory file (same idiom as the dispatch package's).
func updateBenchJSON(t *testing.T, path, key string, section any) {
	t.Helper()
	doc := map[string]json.RawMessage{}
	if blob, err := os.ReadFile(path); err == nil {
		var probe map[string]json.RawMessage
		if json.Unmarshal(blob, &probe) == nil {
			if _, legacy := probe["bench"]; !legacy {
				doc = probe
			}
		}
	}
	raw, err := json.Marshal(section)
	if err != nil {
		t.Fatal(err)
	}
	doc[key] = raw
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s section of %s: %s", key, path, raw)
}
