package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"profitlb/internal/config"
)

// capture redirects stdout while fn runs and returns what was printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	return out, ferr
}

func TestCmdList(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1", "fig11", "tab9", "abl13-defer"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestCmdRunSingle(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"run", "tab9"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Sub-deadlines") {
		t.Fatalf("run tab9 output unexpected: %q", out)
	}
}

func TestCmdRunUnknown(t *testing.T) {
	_, err := capture(t, func() error { return run([]string{"run", "nope"}) })
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("got %v", err)
	}
}

func TestCmdRunNeedsArgs(t *testing.T) {
	if err := run([]string{"run"}); err == nil {
		t.Fatal("want error without ids")
	}
}

func TestCmdPrices(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"prices"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Houston") || !strings.Contains(out, "Atlanta") {
		t.Fatal("prices output missing locations")
	}
}

func TestCmdTrace(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"trace", "-seed", "3", "-types", "2"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "slot,type0,type1") {
		t.Fatalf("trace header wrong: %q", out[:40])
	}
	if lines := strings.Count(out, "\n"); lines != 25 { // header + 24 slots
		t.Fatalf("trace lines = %d, want 25", lines)
	}
}

func TestCmdHelpAndUnknown(t *testing.T) {
	if _, err := capture(t, func() error { return run(nil) }); err != nil {
		t.Fatal("bare invocation should print usage without error")
	}
	if _, err := capture(t, func() error { return run([]string{"help"}) }); err != nil {
		t.Fatal("help should not error")
	}
	_, err := capture(t, func() error { return run([]string{"frobnicate"}) })
	if err == nil {
		t.Fatal("unknown command should error")
	}
}

func TestCmdScaffoldAndSimulate(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"scaffold"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"planner": "optimized"`) {
		t.Fatalf("scaffold output unexpected: %.120s", out)
	}
	path := t.TempDir() + "/scenario.json"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	simOut, err := capture(t, func() error { return run([]string{"simulate", "-config", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(simOut, "total") || !strings.Contains(simOut, "scenario example") {
		t.Fatalf("simulate output unexpected: %.160s", simOut)
	}
}

func TestCmdSimulateErrors(t *testing.T) {
	if err := run([]string{"simulate"}); err == nil {
		t.Fatal("want error without -config")
	}
	if err := run([]string{"simulate", "-config", "/nonexistent.json"}); err == nil {
		t.Fatal("want error for missing file")
	}
}

// TestCmdSimulateMPCFlags: -horizon/-defer switch the scenario onto the
// rolling-horizon planner, and malformed or mis-sized allowance lists are
// rejected before the run starts.
func TestCmdSimulateMPCFlags(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"scaffold"}) })
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/scenario.json"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	simOut, err := capture(t, func() error {
		return run([]string{"simulate", "-config", path, "-horizon", "4", "-defer", "0,2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(simOut, "planner mpc") {
		t.Fatalf("simulate did not switch to mpc: %.160s", simOut)
	}
	if err := run([]string{"simulate", "-config", path, "-defer", "0,oops"}); err == nil {
		t.Fatal("malformed -defer accepted")
	}
	if err := run([]string{"simulate", "-config", path, "-horizon", "4", "-defer", "1,2,3"}); err == nil {
		t.Fatal("mis-sized -defer accepted")
	}
}

func TestCmdCompareAndExportLP(t *testing.T) {
	scaffoldOut, err := capture(t, func() error { return run([]string{"scaffold"}) })
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, []byte(scaffoldOut), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"compare", "-config", path}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"optimized", "balanced", "nearest", "VS BEST"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %q", want)
		}
	}
	lpOut, err := capture(t, func() error { return run([]string{"export-lp", "-config", path, "-slot", "3"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Maximize", "Subject To", "Bounds", "End"} {
		if !strings.Contains(lpOut, want) {
			t.Fatalf("export-lp output missing %q", want)
		}
	}
	if err := run([]string{"compare"}); err == nil {
		t.Fatal("compare without -config should error")
	}
	if err := run([]string{"export-lp"}); err == nil {
		t.Fatal("export-lp without -config should error")
	}
}

func TestCmdSimulateFaultStorm(t *testing.T) {
	scaffoldOut, err := capture(t, func() error { return run([]string{"scaffold"}) })
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, []byte(scaffoldOut), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"simulate", "-config", path, "-faults", "storm", "-seed", "42"})
	})
	if err != nil {
		t.Fatalf("fault storm aborted the horizon: %v", err)
	}
	for _, want := range []string{"TIER", "FAULTS", "fault schedule", "degraded slots"} {
		if !strings.Contains(out, want) {
			t.Fatalf("simulate -faults output missing %q:\n%.400s", want, out)
		}
	}
	// The full 24-slot horizon completed despite the storm.
	if !strings.Contains(out, "23") {
		t.Fatal("horizon did not reach the final slot")
	}
	// Same seed → identical report.
	again, err := capture(t, func() error {
		return run([]string{"simulate", "-config", path, "-faults", "storm", "-seed", "42"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Fatal("same seed produced a different report")
	}
	// A different seed draws a different storm.
	other, err := capture(t, func() error {
		return run([]string{"simulate", "-config", path, "-faults", "storm", "-seed", "43"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if out == other {
		t.Fatal("different seeds produced identical storms")
	}
}

func TestCmdSimulateFaultsFile(t *testing.T) {
	scaffoldOut, err := capture(t, func() error { return run([]string{"scaffold"}) })
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfgPath := dir + "/s.json"
	if err := os.WriteFile(cfgPath, []byte(scaffoldOut), 0o644); err != nil {
		t.Fatal(err)
	}
	faultsPath := dir + "/faults.json"
	schedule := `{"events":[
		{"kind":"center-outage","center":1,"from":3,"to":5},
		{"kind":"price-spike","center":0,"factor":2,"from":4,"to":6}]}`
	if err := os.WriteFile(faultsPath, []byte(schedule), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"simulate", "-config", cfgPath, "-faults", faultsPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "center-outage") || !strings.Contains(out, "price-spike") {
		t.Fatalf("scheduled faults not reported:\n%.400s", out)
	}
	// A schedule targeting a center the scenario doesn't have is rejected.
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"events":[{"kind":"center-outage","center":9,"from":0,"to":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate", "-config", cfgPath, "-faults", bad}); err == nil {
		t.Fatal("out-of-range fault schedule accepted")
	}
}

func TestCmdChaos(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"chaos", "-seed", "7"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"storm", "optimized", "balanced", "RETAINED", "COMPLETION", "DEGRADED"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos output missing %q:\n%.400s", want, out)
		}
	}
	again, err := capture(t, func() error { return run([]string{"chaos", "-seed", "7"}) })
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Fatal("chaos with the same seed is not reproducible")
	}
}

func TestCmdRunChaosExperiment(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"run", "rob2-chaos"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"storm", "retained", "fallback"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rob2-chaos output missing %q", want)
		}
	}
}

func TestCmdTraceStats(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"trace", "-stats", "-types", "2"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PEAK/MEAN") || !strings.Contains(out, "type1") {
		t.Fatalf("trace -stats output unexpected: %q", out)
	}
}

// writeScaffold dumps the example scenario to a temp file, optionally
// rewriting it first.
func writeScaffold(t *testing.T, rewrite func(string) string) string {
	t.Helper()
	out, err := capture(t, func() error { return run([]string{"scaffold"}) })
	if err != nil {
		t.Fatal(err)
	}
	if rewrite != nil {
		out = rewrite(out)
	}
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// retiredKeys lists every scenario key that became a constant, by the
// block that carried it. A whole block that went (control) is refused by
// its own name, the rest by the key's.
var retiredKeys = []struct{ block, key, value string }{
	{"feeds", "maxAttempts", "3"}, {"feeds", "attemptLatencyMs", "20"},
	{"feeds", "baseBackoffMs", "25"}, {"feeds", "deadlineMs", "250"},
	{"feeds", "breakerThreshold", "2"}, {"feeds", "breakerCooldown", "2"},
	{"feeds", "ttl", "3"}, {"feeds", "decay", "1"},
	{"feeds", "processRel", "0.15"}, {"feeds", "measureRel", "0.05"},
	{"feeds", "minObservations", "2"}, {"feeds", "staleMargin", "0.05"},
	{"feeds", "maxMargin", "0.5"}, {"feeds", "pricePriors", "[0.05, 0.05]"},
	{"feeds", "arrivalPriors", "[[1, 1], [1, 1]]"},
	{"control", "ticksPerSlot", "8"}, {"control", "deadBand", "0.15"},
	{"control", "reentryBand", "0.075"}, {"control", "gain", "0.5"},
	{"control", "maxStep", "0.25"}, {"control", "minMult", "0.1"},
	{"control", "maxMult", "4"}, {"control", "minSamples", "16"},
	{"control", "noiseSigmas", "4"},
	{"cluster", "staleSlots", "2"}, {"cluster", "staleFactor", "0.5"},
	{"cluster", "failThreshold", "2"},
	{"mpc", "deferMargin", "0.2"}, {"mpc", "processRel", "0.15"},
	{"mpc", "measureRel", "0.05"}, {"mpc", "minObservations", "3"},
}

// TestRetiredEngineKnobRejected: a key that became a constant is refused
// by name wherever a file can carry it — the scenario's block and, for
// the feeds keys, a -feeds file — never read past; each is given its old
// default, so nothing but the key is wrong with the file. The plan
// search's worker count went the same way earlier, and its flag no longer
// parses.
func TestRetiredEngineKnobRejected(t *testing.T) {
	path := writeScaffold(t, nil)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	splice := func(extra string) string {
		return strings.Replace(string(raw), `"slots": 24`, `"slots": 24, `+extra, 1)
	}
	if _, err := config.Load(strings.NewReader(splice(`"parallelism": 2`))); err == nil ||
		!strings.Contains(err.Error(), `unknown field "parallelism"`) {
		t.Fatalf("config.Load of a scenario with \"parallelism\": %v, want the unknown-field error", err)
	}
	if len(retiredKeys) != 31 {
		t.Fatalf("%d retired keys listed, the census found 31", len(retiredKeys))
	}
	for _, rk := range retiredKeys {
		named := rk.key
		if rk.block == "control" {
			named = rk.block
		}
		want := fmt.Sprintf("unknown field %q", named)
		block := fmt.Sprintf(`{%q: %s}`, rk.key, rk.value)
		_, err := config.Load(strings.NewReader(splice(fmt.Sprintf(`%q: %s`, rk.block, block))))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("scenario with %s.%s: %v, want %s", rk.block, rk.key, err, want)
		}
		if rk.block != "feeds" {
			continue
		}
		feedsPath := t.TempDir() + "/feeds.json"
		if err := os.WriteFile(feedsPath, []byte(block), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = capture(t, func() error {
			return run([]string{"simulate", "-config", path, "-feeds", feedsPath})
		})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-feeds file with %s: %v, want %s", rk.key, err, want)
		}
	}
	_, err = capture(t, func() error {
		return run([]string{"simulate", "-config", path, "-parallel", "2"})
	})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -parallel") {
		t.Fatalf("simulate -parallel 2: %v, want a flag-parsing error", err)
	}
}

// TestCmdChaosFeeds is the chaos+feeds smoke test (the `make
// verify-feeds` tier runs it explicitly): one storm with feed faults,
// inputs routed through the feed layer, reproducible by seed.
func TestCmdChaosFeeds(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"chaos", "-seed", "5", "-feeds"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FEED TIERS", "fresh:", "feed-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos -feeds output missing %q:\n%.500s", want, out)
		}
	}
	again, err := capture(t, func() error { return run([]string{"chaos", "-seed", "5", "-feeds"}) })
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Fatal("chaos -feeds with the same seed is not reproducible")
	}
}

func TestCmdSimulateFeeds(t *testing.T) {
	path := writeScaffold(t, nil)
	out, err := capture(t, func() error { return run([]string{"simulate", "-config", path, "-feeds", "on"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FEEDS") || !strings.Contains(out, "feed tiers fresh:") {
		t.Fatalf("simulate -feeds output missing feed health:\n%.500s", out)
	}
	// A feed-config file works too, and hostile files are rejected.
	feedsPath := t.TempDir() + "/feeds.json"
	if err := os.WriteFile(feedsPath, []byte(`{"seed": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"simulate", "-config", path, "-feeds", feedsPath})
	}); err != nil {
		t.Fatalf("simulate with feeds file: %v", err)
	}
	badPath := t.TempDir() + "/bad.json"
	if err := os.WriteFile(badPath, []byte(`{"bogusKnob": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"simulate", "-config", path, "-feeds", badPath})
	}); err == nil {
		t.Fatal("unknown feed-config field must be rejected")
	}
	if _, err := capture(t, func() error {
		return run([]string{"simulate", "-config", path, "-feeds", "/nonexistent.json"})
	}); err == nil {
		t.Fatal("missing feeds file must error")
	}
}

func TestCmdRunDarkFeedsExperiment(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"run", "rob3-darkfeeds"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dark", "prior", "feeds-clean", "100.00%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rob3-darkfeeds output missing %q", want)
		}
	}
}
