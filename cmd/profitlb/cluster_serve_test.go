package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"profitlb/internal/dispatch"
	"profitlb/internal/loadgen"
)

// startModeServer boots a server with explicit options and registers the
// drain cleanup.
func startModeServer(t *testing.T, opt serveOptions) *gatewayServer {
	t.Helper()
	gs, err := newServer(serveScenario(t), "127.0.0.1:0", opt)
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

// waitForHTTP polls cond for up to 5 seconds.
func waitForHTTP(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServeReadyz: /readyz answers 503 until the first plan epoch is
// applied, 200 once it is, and 503 again while draining — distinct from
// /healthz, which stays green before the first plan.
func TestServeReadyz(t *testing.T) {
	gs, err := newServer(serveScenario(t), "127.0.0.1:0", serveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Before Start no plan epoch has been applied: not ready.
	rec := httptest.NewRecorder()
	gs.handleReady(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before the first plan = %d, want 503", rec.Code)
	}
	var body map[string]any
	if rec.Body.Len() == 0 {
		t.Fatal("empty /readyz body")
	}
	if code := decodeBody(t, rec, &body); code != http.StatusServiceUnavailable ||
		body["ready"] != false || body["reason"] != "no plan epoch applied yet" {
		t.Fatalf("/readyz before the first plan: %d %v", code, body)
	}
	// But the process is live.
	rec = httptest.NewRecorder()
	gs.handleHealth(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz before the first plan = %d, want 200 (liveness, not readiness)", rec.Code)
	}

	if err := gs.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = gs.Shutdown(ctx)
	})
	base := "http://" + gs.Addr()
	var ready map[string]any
	if code := getJSON(t, base+"/readyz", &ready); code != http.StatusOK || ready["ready"] != true {
		t.Fatalf("/readyz after the first plan: %d %v", code, ready)
	}

	gs.draining.Store(true)
	if code := getJSON(t, base+"/readyz", &ready); code != http.StatusServiceUnavailable ||
		ready["reason"] != "draining" {
		t.Fatalf("/readyz while draining: %d %v", code, ready)
	}
}

// decodeBody decodes a recorded JSON response.
func decodeBody(t *testing.T, rec *httptest.ResponseRecorder, v any) int {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding recorded body: %v", err)
	}
	return rec.Code
}

// TestServeFleetSmoke: a 3-replica fleet server admits a burst spread
// over its replicas, every replica serves the same epoch, and the
// per-replica counters sum to the burst exactly.
func TestServeFleetSmoke(t *testing.T) {
	gs := startModeServer(t, serveOptions{Replicas: 3})
	if gs.mode != "fleet" {
		t.Fatalf("mode %q, want fleet", gs.mode)
	}
	base := "http://" + gs.Addr()

	var ready map[string]any
	if code := getJSON(t, base+"/readyz", &ready); code != http.StatusOK || ready["mode"] != "fleet" {
		t.Fatalf("/readyz on a booted fleet: %d %v", code, ready)
	}

	const n = 300
	res, _, err := loadgen.FireHTTP([]string{base}, gs.sc.System, n, 13, loadgen.FireConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n || res.Rejected != 0 {
		t.Fatalf("fired %+v, want %d sent and 0 rejected", res, n)
	}
	if res.Admitted == 0 {
		t.Fatalf("fleet admitted nothing: %+v", res)
	}

	var stats map[string]any
	if code := getJSON(t, base+"/admin/stats", &stats); code != http.StatusOK {
		t.Fatalf("/admin/stats = %d", code)
	}
	rows, ok := stats["replicas"].([]any)
	if !ok || len(rows) != 3 {
		t.Fatalf("stats replicas: %v", stats["replicas"])
	}
	published := stats["publishedEpoch"].(float64)
	if published == 0 {
		t.Fatal("fleet has no published epoch after boot")
	}
	var total float64
	for _, row := range rows {
		r := row.(map[string]any)
		if r["ready"] != true {
			t.Fatalf("replica %v not ready after boot", r["id"])
		}
		if r["epoch"].(float64) != published {
			t.Fatalf("replica %v at epoch %v, published %v", r["id"], r["epoch"], published)
		}
		total += r["stats"].(map[string]any)["TotalRequests"].(float64)
	}
	if int(total) != n {
		t.Fatalf("replica counters sum to %d requests, want %d", int(total), n)
	}
	if members, ok := stats["members"].([]any); !ok || len(members) != 3 {
		t.Fatalf("fleet members: %v", stats["members"])
	}

	// The control plane is mounted: an external joiner's first pull joins
	// it to the membership and gets a freshly re-spread epoch.
	var pub map[string]any
	if code := getJSON(t, base+"/cluster/plan?after=0&id=probe&wait=10", &pub); code != http.StatusOK {
		t.Fatalf("/cluster/plan = %d, want 200", code)
	}
	if pub["epoch"].(float64) < published {
		t.Fatalf("/cluster/plan epoch %v below published %v", pub["epoch"], published)
	}
	probeJoined := false
	for _, m := range pub["members"].([]any) {
		if m == "probe" {
			probeJoined = true
		}
	}
	if !probeJoined {
		t.Fatalf("first pull did not join the prober: %v", pub["members"])
	}
}

// TestServeAdminReadsTheFleet: on a 4-replica server /admin/plan serves
// the committed, undivided table — the driver's objective, where it used
// to read one replica's quarter share — /admin/stats and /healthz report
// the fleet aggregate, and none of them turns the request round robin.
func TestServeAdminReadsTheFleet(t *testing.T) {
	gs := startModeServer(t, serveOptions{Replicas: 4})
	base := "http://" + gs.Addr()
	var plan struct {
		Slot      int     `json:"slot"`
		Objective float64 `json:"objective"`
	}
	if code := getJSON(t, base+"/admin/plan", &plan); code != http.StatusOK {
		t.Fatalf("/admin/plan = %d", code)
	}
	committed := gs.fleet.Pub.Current().Table
	if plan.Slot != committed.Slot || plan.Objective != committed.Objective || plan.Objective <= 0 {
		t.Fatalf("/admin/plan slot %d objective %v, the driver committed slot %d objective %v",
			plan.Slot, plan.Objective, committed.Slot, committed.Objective)
	}

	const n = 200
	if _, _, err := loadgen.FireHTTP([]string{base}, gs.sc.System, n, 3, loadgen.FireConfig{}); err != nil {
		t.Fatal(err)
	}
	rr := gs.rr.Load()
	var stats dispatch.Stats
	if code := getJSON(t, base+"/admin/stats", &stats); code != http.StatusOK {
		t.Fatalf("/admin/stats = %d", code)
	}
	if stats.TotalRequests != n || stats.Swaps != 4 || stats.TotalAdmitted+stats.TotalShed != n {
		t.Fatalf("/admin/stats aggregate %+v, want %d requests over 4 replicas' swaps", stats, n)
	}
	var laneAdmitted int64
	for _, ln := range stats.Lanes {
		laneAdmitted += ln.Admitted
	}
	if laneAdmitted != stats.TotalAdmitted {
		t.Fatalf("aggregate lanes admitted %d, the fleet %d", laneAdmitted, stats.TotalAdmitted)
	}
	var health map[string]any
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK || health["swaps"] != float64(4) {
		t.Fatalf("/healthz = %d %v, want the fleet's 4 swaps", code, health)
	}
	if got := gs.rr.Load(); got != rr {
		t.Fatalf("admin endpoints turned the request round robin %d → %d", rr, got)
	}
}

// TestServeJoinSmoke: a join-mode server (no planner) pulls its plan
// from a fleet server, turns ready once the first epoch lands, and then
// serves dispatch traffic of its own.
func TestServeJoinSmoke(t *testing.T) {
	fleet := startModeServer(t, serveOptions{Replicas: 2})
	join := startModeServer(t, serveOptions{JoinURL: "http://" + fleet.Addr(), JoinID: "ext-test"})
	if join.mode != "join" {
		t.Fatalf("mode %q, want join", join.mode)
	}
	jbase := "http://" + join.Addr()

	waitForHTTP(t, "the joiner to apply its first epoch", func() bool {
		resp, err := http.Get(jbase + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// The joiner shows up in the fleet's membership.
	var fstats map[string]any
	if code := getJSON(t, "http://"+fleet.Addr()+"/admin/stats", &fstats); code != http.StatusOK {
		t.Fatalf("fleet /admin/stats = %d", code)
	}
	found := false
	for _, m := range fstats["members"].([]any) {
		if m == "ext-test" {
			found = true
		}
	}
	if !found {
		t.Fatalf("joiner missing from fleet members: %v", fstats["members"])
	}

	// And serves requests through its own gateway.
	sc := join.sc
	u := fmt.Sprintf("%s/dispatch/%s/%s", jbase, sc.System.FrontEnds[0].Name, sc.System.Classes[0].Name)
	var dec map[string]any
	if code := getJSON(t, u, &dec); code != http.StatusOK && code != http.StatusTooManyRequests {
		t.Fatalf("join-mode dispatch = %d, want 200 or 429", code)
	}

	var jstats map[string]any
	if code := getJSON(t, jbase+"/admin/stats", &jstats); code != http.StatusOK {
		t.Fatalf("join /admin/stats = %d", code)
	}
	if jstats["mode"] != "join" {
		t.Fatalf("join stats mode: %v", jstats["mode"])
	}
	sub, ok := jstats["subscriber"].(map[string]any)
	if !ok || sub["rounds"].(float64) < 1 {
		t.Fatalf("join subscriber stats: %v", jstats["subscriber"])
	}
}

// TestServeControlSmoke: a fleet server with -control boots the drift
// controller, ticks it between slot boundaries without freezing on a
// healthy clock, surfaces its state in /admin/stats, and drains cleanly.
// A fleet of one (no -replicas) arms it too; a join-mode server refuses it.
func TestServeControlSmoke(t *testing.T) {
	sc := serveScenario(t)
	sc.Dispatch.SlotSeconds = 2 // 8 ticks ⇒ one control tick every 250ms
	gs, err := newServer(sc, "127.0.0.1:0", serveOptions{Replicas: 2, Control: true})
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
	base := "http://" + gs.Addr()
	// Serve traffic across a few control ticks.
	rep, _, err := loadgen.FireHTTP([]string{base}, sc.System, 400, 7, loadgen.FireConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 400 {
		t.Fatalf("sent %d of 400 under control", rep.Sent)
	}
	time.Sleep(600 * time.Millisecond)
	var stats map[string]any
	if code := getJSON(t, base+"/admin/stats", &stats); code != http.StatusOK {
		t.Fatalf("/admin/stats = %d", code)
	}
	ctrl, ok := stats["control"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing control block: %v", stats)
	}
	if frozen, ok := ctrl["frozen"].(bool); !ok || frozen {
		t.Fatalf("controller frozen on a healthy clock: %v", ctrl)
	}

	// A fleet of one arms the controller too.
	single, err := newServer(serveScenario(t), "127.0.0.1:0", serveOptions{Control: true})
	if err != nil {
		t.Fatal(err)
	}
	if single.ctrl == nil {
		t.Fatal("a fleet-of-one server did not build a controller")
	}

	// Join mode has no local control plane to correct.
	if _, err := newServer(serveScenario(t), "127.0.0.1:0",
		serveOptions{JoinURL: "http://127.0.0.1:1", JoinID: "edge", Control: true}); err == nil {
		t.Fatal("join-mode -control accepted")
	}
}
