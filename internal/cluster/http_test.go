package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"profitlb/internal/dispatch"
)

// TestPlanHandler covers the long-poll endpoint's answer matrix: method
// guard, 204 on nothing-fresher, and a publication body.
func TestPlanHandler(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 23, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	p := NewPublisher(testClusterConfig(0), drv, nil)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	post, err := http.Post(srv.URL+"/plan", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST answered %d", post.StatusCode)
	}

	// Nothing published yet: the poll parks and answers 204.
	resp, err := http.Get(srv.URL + "/plan?after=0&id=rA&wait=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("empty publisher answered %d, want 204", resp.StatusCode)
	}
	// The poll heartbeat joined rA.
	if got := p.Members(); len(got) != 1 || got[0] != "rA" {
		t.Fatalf("members after first poll: %v", got)
	}

	if _, err := p.PublishSlot(0); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/plan?after=0&id=rA&wait=10")
	if err != nil {
		t.Fatal(err)
	}
	var pub Publication
	if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pub.Epoch == 0 || pub.Table == nil {
		t.Fatalf("publication answer: %d %+v", resp.StatusCode, pub)
	}
	if len(pub.Members) != 1 || pub.Members[0] != "rA" {
		t.Fatalf("publication members %v", pub.Members)
	}

	// Caught up: nothing fresher than the current epoch.
	resp, err = http.Get(srv.URL + "/plan?after=" + itoa64(pub.Epoch) + "&id=rA&wait=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("caught-up poll answered %d, want 204", resp.StatusCode)
	}
}

func itoa64(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSubscriberJoinsAndFollows: a subscriber's first pull joins its
// replica (getting a re-spread share immediately), and subsequent
// publishes flow through the long-poll.
func TestSubscriberJoinsAndFollows(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 29, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, drv, nil)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// The control plane has a plan out before the joiner arrives.
	p.Beat("r0", 0)
	p.SweepHealth(0)
	if _, err := p.PublishSlot(0); err != nil {
		t.Fatal(err)
	}

	rep := NewReplica("ext", sys, dcfg, ccfg, nil)
	sub := NewSubscriber(srv.URL, rep, ccfg, func() float64 { return 0 })
	sub.Start()
	defer sub.Stop()

	// First contact re-spreads: the joiner gets a share without waiting
	// for the next slot.
	waitFor(t, "joiner to apply its first epoch", rep.Ready)
	if got := p.Members(); len(got) != 2 {
		t.Fatalf("members after join: %v", got)
	}
	if rep.Epoch() != p.Epoch() {
		t.Fatalf("joiner at epoch %d, publisher at %d", rep.Epoch(), p.Epoch())
	}

	// The next slot's publish reaches the parked long-poll.
	if _, err := p.PublishSlot(1); err != nil {
		t.Fatal(err)
	}
	target := p.Epoch()
	waitFor(t, "slot publication to arrive", func() bool { return rep.Epoch() == target })
	rounds, _, lastErr := sub.Stats()
	if rounds == 0 {
		t.Fatal("subscriber recorded no pull rounds")
	}
	if lastErr != nil {
		t.Fatalf("subscriber lastErr: %v", lastErr)
	}
}

// TestSubscriberRetriesFlakyTransport: connection-level failures (5xx
// here) back off and retry inside the round; the replica converges once
// the transport heals, and the failures are tallied.
func TestSubscriberRetriesFlakyTransport(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 31, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, drv, nil)

	var failures atomic.Int64
	inner := p.Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	p.Beat("ext", 0)
	p.SweepHealth(0)
	if _, err := p.PublishSlot(0); err != nil {
		t.Fatal(err)
	}

	rep := NewReplica("ext", sys, dcfg, ccfg, nil)
	sub := NewSubscriber(flaky.URL, rep, ccfg, func() float64 { return 0 })
	sub.Start()
	defer sub.Stop()

	waitFor(t, "replica to converge through the flaky transport", func() bool {
		return rep.Ready() && rep.Epoch() == p.Epoch()
	})
	_, failed, _ := sub.Stats()
	if failed < 2 {
		t.Fatalf("subscriber tallied %d transport failures, want ≥ 2", failed)
	}
}

// TestSubscriberGivesUpAndServesStale: with the control plane dead, the
// pull loop exhausts its retry budget per round and the replica keeps
// its last epoch instead of crashing or clearing state.
func TestSubscriberGivesUpAndServesStale(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 37, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	ccfg := testClusterConfig(0)
	ccfg.PollWaitMs = 5
	p := NewPublisher(ccfg, drv, nil)
	srv := httptest.NewServer(p.Handler())

	p.Beat("ext", 0)
	p.SweepHealth(0)
	if _, err := p.PublishSlot(0); err != nil {
		t.Fatal(err)
	}
	rep := NewReplica("ext", sys, dcfg, ccfg, nil)
	sub := NewSubscriber(srv.URL, rep, ccfg, func() float64 { return 0 })
	sub.Start()
	defer sub.Stop()
	waitFor(t, "initial apply", rep.Ready)
	epoch := rep.Epoch()

	srv.Close() // control plane dies: every pull now fails at the dial
	waitFor(t, "a dirty round to be recorded", func() bool {
		_, _, lastErr := sub.Stats()
		return lastErr != nil
	})
	if !rep.Ready() || rep.Epoch() != epoch {
		t.Fatalf("replica lost state during outage: ready %v epoch %d", rep.Ready(), rep.Epoch())
	}
	// Its gateway still answers.
	if out := rep.Gateway().Handle(0, 0, 0).Outcome; out == dispatch.Invalid {
		t.Fatal("stale replica answered Invalid")
	}
}
