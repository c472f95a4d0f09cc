package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"profitlb/internal/config"
	"profitlb/internal/dispatch"
	"profitlb/internal/loadgen"
)

// serveScenario is the smoke-test fixture: the example scenario with a
// dispatch block whose slot is long enough that no rotation happens
// mid-test and whose drain deadline is short.
func serveScenario(t *testing.T) *config.Scenario {
	t.Helper()
	sc := config.Example()
	sc.Name = "serve-smoke"
	sc.Dispatch = &dispatch.Config{Seed: 42, SlotSeconds: 300, DrainSeconds: 5}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// startServer boots a gateway server on a free port and registers a
// cleanup drain in case the test bails early.
func startServer(t *testing.T, sc *config.Scenario) *gatewayServer {
	t.Helper()
	gs, err := newServer(sc, "127.0.0.1:0", serveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gs.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = gs.Shutdown(ctx)
	})
	return gs
}

// getJSON fetches a URL and decodes the JSON body.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding body: %v", url, err)
	}
	return resp.StatusCode
}

// TestServeSmoke is the verify-dispatch gate: boot the gateway, fire a
// burst over HTTP with the load generator, check every endpoint, and
// drain cleanly. The admitted+shed totals must reconcile between the
// HTTP client, /admin/stats and /metrics.
func TestServeSmoke(t *testing.T) {
	sc := serveScenario(t)
	gs := startServer(t, sc)
	base := "http://" + gs.Addr()

	var health map[string]any
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if health["status"] != "ok" || health["degraded"] == true {
		t.Fatalf("unhealthy at boot: %v", health)
	}

	var plan map[string]any
	if code := getJSON(t, base+"/admin/plan", &plan); code != http.StatusOK {
		t.Fatalf("/admin/plan = %d, want 200", code)
	}
	if lanes, ok := plan["lanes"].([]any); !ok || len(lanes) == 0 {
		t.Fatalf("/admin/plan has no lanes: %v", plan["lanes"])
	}
	if plan["degraded"] == true {
		t.Fatalf("boot plan is degraded: %v", plan)
	}

	const n = 400
	res, err := loadgen.FireHTTP(base, sc.System, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n || res.Rejected != 0 {
		t.Fatalf("fired %+v, want %d sent and 0 rejected", res, n)
	}
	if res.Admitted == 0 {
		t.Fatalf("gateway admitted nothing: %+v", res)
	}

	// A named dispatch answers with the serving center.
	var dec map[string]any
	u := fmt.Sprintf("%s/dispatch/%s/%s", base, sc.System.FrontEnds[0].Name, sc.System.Classes[0].Name)
	if code := getJSON(t, u, &dec); code != http.StatusOK && code != http.StatusTooManyRequests {
		t.Fatalf("GET %s = %d, want 200 or 429", u, code)
	}
	extra := 1
	if dec["outcome"] == "admitted" && dec["center"] == nil {
		t.Fatalf("admitted decision without a center: %v", dec)
	}

	// Unknown names 404 without counting against the gateway.
	resp, err := http.Get(base + "/dispatch/mars/web")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/dispatch/mars/web = %d, want 404", resp.StatusCode)
	}

	var stats dispatch.Stats
	if code := getJSON(t, base+"/admin/stats", &stats); code != http.StatusOK {
		t.Fatalf("/admin/stats = %d, want 200", code)
	}
	if got, want := stats.TotalRequests, int64(n+extra); got != want {
		t.Fatalf("stats counted %d requests, want %d", got, want)
	}
	if stats.TotalAdmitted+stats.TotalShed != stats.TotalRequests {
		t.Fatalf("stats do not reconcile: %+v", stats)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mblob, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", mresp.StatusCode)
	}
	metrics := string(mblob)
	if !strings.Contains(metrics, "dispatch_requests_total") ||
		!strings.Contains(metrics, fmt.Sprintf("dispatch_requests_total %d", stats.TotalRequests)) {
		t.Fatalf("/metrics missing dispatch_requests_total %d:\n%s", stats.TotalRequests, metrics)
	}

	// Drain: the shutdown completes within the deadline and late
	// requests are refused, not served.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gs.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("gateway still answering after drain")
	}
}

// TestServeDrainRefusesNewWork: a draining gateway answers 503 on the
// dispatch path before the listener closes.
func TestServeDrainRefusesNewWork(t *testing.T) {
	sc := serveScenario(t)
	gs := startServer(t, sc)
	gs.draining.Store(true)
	var dec map[string]any
	u := fmt.Sprintf("http://%s/dispatch/%s/%s", gs.Addr(), sc.System.FrontEnds[0].Name, sc.System.Classes[0].Name)
	if code := getJSON(t, u, &dec); code != http.StatusServiceUnavailable {
		t.Fatalf("dispatch while draining = %d, want 503", code)
	}
	if dec["outcome"] != "draining" {
		t.Fatalf("draining body: %v", dec)
	}
	var health map[string]any
	if code := getJSON(t, "http://"+gs.Addr()+"/healthz", &health); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining = %d, want 503", code)
	}
}

// TestServeFrontEndExposure: a dispatch block that exposes only one
// front-end 404s the others.
func TestServeFrontEndExposure(t *testing.T) {
	sc := serveScenario(t)
	sc.Dispatch.FrontEnds = []string{sc.System.FrontEnds[0].Name}
	gs := startServer(t, sc)
	base := "http://" + gs.Addr()
	class := sc.System.Classes[0].Name
	resp, err := http.Get(fmt.Sprintf("%s/dispatch/%s/%s", base, sc.System.FrontEnds[0].Name, class))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exposed front-end = %d, want 200 or 429", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/dispatch/%s/%s", base, sc.System.FrontEnds[1].Name, class))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unexposed front-end = %d, want 404", resp.StatusCode)
	}
}

// TestServeRejectsInvalidScenario: wiring errors surface at construction.
func TestServeRejectsInvalidScenario(t *testing.T) {
	sc := serveScenario(t)
	sc.Planner = "no-such-planner"
	if _, err := newServer(sc, "127.0.0.1:0", serveOptions{}); err == nil {
		t.Fatal("bogus planner accepted")
	}
}
