package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"profitlb/internal/obs"
	"profitlb/internal/sim"
)

// obsScenario writes a scaffold scenario into a temp dir and returns
// its path plus the dir for the observability output files.
func obsScenario(t *testing.T) (cfgPath, dir string) {
	t.Helper()
	scaffoldOut, err := capture(t, func() error { return run([]string{"scaffold"}) })
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	cfgPath = dir + "/s.json"
	if err := os.WriteFile(cfgPath, []byte(scaffoldOut), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfgPath, dir
}

func TestCmdSimulateObsFiles(t *testing.T) {
	cfgPath, dir := obsScenario(t)
	metricsPath := dir + "/metrics.txt"
	tracePath := dir + "/trace.jsonl"
	if _, err := capture(t, func() error {
		return run([]string{"simulate", "-config", cfgPath, "-faults", "storm", "-seed", "42",
			"-resilient", "-metrics", metricsPath, "-trace", tracePath})
	}); err != nil {
		t.Fatal(err)
	}

	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sim_slots_total", "sim_plan_seconds", "resilient_commits_total", "core_lp_solves_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics file missing series %q:\n%.400s", want, metrics)
		}
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(trace), "\n"), "\n")
	if len(lines) < 24 { // at least one event per slot of the 24-slot horizon
		t.Fatalf("trace has %d lines, want >= 24", len(lines))
	}
	kinds := map[string]bool{}
	for i, ln := range lines {
		var ev struct {
			Kind string `json:"kind"`
			Slot int    `json:"slot"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v\n%s", i, err, ln)
		}
		if ev.Kind == "" {
			t.Fatalf("trace line %d has no kind: %s", i, ln)
		}
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"slot-start", "slot-end", "plan-committed", "tier-commit"} {
		if !kinds[want] {
			t.Fatalf("trace stream has no %q event; kinds seen: %v", want, kinds)
		}
	}
}

func TestCmdSimulateObsJSONMetrics(t *testing.T) {
	cfgPath, dir := obsScenario(t)
	metricsPath := dir + "/metrics.json"
	if _, err := capture(t, func() error {
		return run([]string{"simulate", "-config", cfgPath, "-metrics", metricsPath})
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]any     `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf(".json metrics file is not valid JSON: %v\n%.400s", err, raw)
	}
	var slots int64
	for id, v := range snap.Counters {
		if strings.HasPrefix(id, "sim_slots_total") {
			slots += v
		}
	}
	if slots != 24 {
		t.Fatalf("sim_slots_total = %d, want 24 (one per slot of the horizon)", slots)
	}
}

// TestCmdSimulateObsOutputUnchanged asserts the CLI-level face of the
// bit-identical guarantee: the report printed with observability
// enabled matches the one printed without it, byte for byte.
func TestCmdSimulateObsOutputUnchanged(t *testing.T) {
	cfgPath, dir := obsScenario(t)
	plain, err := capture(t, func() error {
		return run([]string{"simulate", "-config", cfgPath, "-faults", "storm", "-seed", "9", "-resilient"})
	})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := capture(t, func() error {
		return run([]string{"simulate", "-config", cfgPath, "-faults", "storm", "-seed", "9", "-resilient",
			"-metrics", dir + "/m.txt", "-trace", dir + "/t.jsonl"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain != observed {
		t.Fatal("simulate report changed when -metrics/-trace were enabled")
	}
}

func TestCmdChaosObs(t *testing.T) {
	dir := t.TempDir()
	metricsPath := dir + "/chaos.json"
	tracePath := dir + "/chaos.jsonl"
	out, err := capture(t, func() error {
		return run([]string{"chaos", "-seed", "5", "-feeds", "-metrics", metricsPath, "-trace", tracePath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "RETAINED") {
		t.Fatalf("chaos output unexpected:\n%.300s", out)
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var fetches int64
	for id, v := range snap.Counters {
		if strings.HasPrefix(id, "feed_fetches_total") {
			fetches += v
		}
	}
	if fetches == 0 {
		t.Fatal("chaos -feeds run recorded no feed fetches")
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Fatalf("chaos trace file empty or missing: %v", err)
	}
}

func TestCmdSimulatePprofSmoke(t *testing.T) {
	cfgPath, _ := obsScenario(t)
	// Port 0 lets the kernel pick a free port; the server runs for the
	// duration of the command and is stopped by the session Close.
	if _, err := capture(t, func() error {
		return run([]string{"simulate", "-config", cfgPath, "-pprof", "127.0.0.1:0"})
	}); err != nil {
		t.Fatalf("simulate -pprof failed: %v", err)
	}
	if err := run([]string{"simulate", "-config", cfgPath, "-pprof", "not-an-addr:port:extra"}); err == nil {
		t.Fatal("bad -pprof address must error")
	}
}

// TestCmdLoadtestMetrics: -metrics is honoured for a lone gateway (a
// fleet of one) and a three-replica fleet alike, and the dumped request
// counter is the offered count the report reconciles on its last line.
func TestCmdLoadtestMetrics(t *testing.T) {
	cfgPath, dir := obsScenario(t)
	reconciled := regexp.MustCompile(`reconcile.*: (\d+) requests = `)
	for name, extra := range map[string][]string{"gateway": nil, "fleet": {"-replicas", "3"}} {
		metricsPath := dir + "/" + name + ".json"
		out, err := capture(t, func() error {
			return run(append([]string{"loadtest", "-config", cfgPath, "-slots", "2", "-seed", "1",
				"-metrics", metricsPath}, extra...))
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := reconciled.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s: no reconciliation line in:\n%s", name, out)
		}
		raw, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatalf("%s: -metrics wrote no file: %v", name, err)
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("%s: metrics file is not valid JSON: %v", name, err)
		}
		if got := strconv.FormatInt(snap.Counters["dispatch_requests_total"], 10); got != m[1] || got == "0" {
			t.Fatalf("%s: dispatch_requests_total = %s, report offered %s", name, got, m[1])
		}
	}
}

// TestSimulateTraceRebuildsInputs: a seeded storm run with feeds on writes
// one slot-input event per slot beside one topology event, and decoding
// them (sim.DecodeInputs) rebuilds, bit for bit, every input its planner
// was handed — the same scenario's input source, walked slot by slot,
// hands out the very same inputs: outages' servers, feed-degraded
// arrivals and prices included.
func TestSimulateTraceRebuildsInputs(t *testing.T) {
	cfgPath, dir := obsScenario(t)
	tracePath := dir + "/trace.jsonl"
	if _, err := capture(t, func() error {
		return run([]string{"simulate", "-config", cfgPath, "-faults", "storm", "-seed", "42",
			"-feeds", "on", "-resilient", "-trace", tracePath})
	}); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	topologies := 0
	for i, ln := range strings.Split(strings.TrimRight(string(trace), "\n"), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %d: %v", i, err)
		}
		if ev.Kind == obs.KindTopology {
			topologies++
		}
		events = append(events, ev)
	}
	got, err := sim.DecodeInputs(events)
	if err != nil {
		t.Fatal(err)
	}

	sc, err := loadScenario(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyFaultsFlag(sc, "storm", 42); err != nil {
		t.Fatal(err)
	}
	if err := applyFeedsFlag(sc, "on"); err != nil {
		t.Fatal(err)
	}
	src, err := sim.NewInputSource(sc.SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if topologies != 1 || len(got) != sc.Slots {
		t.Fatalf("%d topology events and %d slot inputs, want 1 and %d", topologies, len(got), sc.Slots)
	}
	outages := 0
	for i, in := range got {
		want, err := src.PlannerInput(sc.StartSlot + i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("slot %d: the trace rebuilds\n%+v\nthe planner was handed\n%+v", want.Slot, in, want)
		}
		if in.Sys.Centers[0].Servers != sc.System.Centers[0].Servers || in.Sys.Centers[1].Servers != sc.System.Centers[1].Servers {
			outages++
		}
	}
	if outages == 0 {
		t.Fatal("no slot ran with a center's servers down: the storm exercises nothing")
	}
}

// TestReplayReproducesCommitted: `replay` re-plans every slot of a seeded
// storm run with feeds on from its trace alone, each on a fresh planner,
// to the committed objective within 1e-7 — outage slots included — and
// two replays of one slot print the same bytes.
func TestReplayReproducesCommitted(t *testing.T) {
	cfgPath, dir := obsScenario(t)
	tracePath := dir + "/trace.jsonl"
	if _, err := capture(t, func() error {
		return run([]string{"simulate", "-config", cfgPath, "-faults", "storm", "-seed", "42",
			"-feeds", "on", "-resilient", "-trace", tracePath})
	}); err != nil {
		t.Fatal(err)
	}
	sc, err := loadScenario(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	diff := regexp.MustCompile(`(?m)^relative difference +(\S+)$`)
	replay := func(slot int) string {
		out, err := capture(t, func() error {
			return run([]string{"replay", tracePath, "-slot", strconv.Itoa(slot)})
		})
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		return out
	}
	for slot := sc.StartSlot; slot < sc.StartSlot+sc.Slots; slot++ {
		out := replay(slot)
		m := diff.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("slot %d: no relative difference in\n%s", slot, out)
		}
		if d, err := strconv.ParseFloat(m[1], 64); err != nil || d > 1e-7 {
			t.Fatalf("slot %d: the replay is %s off the committed objective:\n%s", slot, m[1], out)
		}
	}
	if a, b := replay(sc.StartSlot+3), replay(sc.StartSlot+3); a != b {
		t.Fatalf("two replays of one slot differ:\n%s\n%s", a, b)
	}
}
