package loadgen

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fastFire is a tight client discipline for tests: real backoff values
// would slow the suite without changing behaviour.
func fastFire(retries int) FireConfig {
	return FireConfig{Timeout: 2 * time.Second, Retries: retries, Backoff: time.Millisecond}
}

// hijackClose kills the client's connection mid-request, which the
// client sees as a transport error (not an HTTP status).
func hijackClose(w http.ResponseWriter) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err == nil {
		conn.Close()
	}
}

// TestFireHTTPRetriesConnectionErrors: a server that drops the first two
// connections is survived by the retry budget — the request eventually
// lands, and the recovered attempts are tallied as retries.
func TestFireHTTPRetriesConnectionErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			hijackClose(w)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	res, _, err := FireHTTP([]string{srv.URL}, testSystem(), 1, 1, fastFire(3))
	if err != nil {
		t.Fatalf("flaky server defeated the retry budget: %v", err)
	}
	if res.Sent != 1 || res.Admitted != 1 {
		t.Fatalf("tally %+v, want 1 sent / 1 admitted", res)
	}
	if res.Retries != 2 {
		t.Fatalf("%d retries recorded, want 2 (two dropped connections)", res.Retries)
	}
}

// TestFireHTTPNeverRetriesShed: 429 is a definitive answer — the gateway
// shed the request on purpose, and retrying sheds would turn admission
// control into a retry storm. The server must see exactly one request.
func TestFireHTTPNeverRetriesShed(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	res, _, err := FireHTTP([]string{srv.URL}, testSystem(), 1, 1, fastFire(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 1 || res.Retries != 0 {
		t.Fatalf("tally %+v, want 1 shed / 0 retries", res)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d requests for one shed answer", n)
	}
}

// TestFireHTTPGivesUpAfterBudget: a dead-on-arrival transport exhausts
// the bounded budget and errors out instead of retrying forever.
func TestFireHTTPGivesUpAfterBudget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hijackClose(w)
	}))
	defer srv.Close()

	res, _, err := FireHTTP([]string{srv.URL}, testSystem(), 1, 1, fastFire(2))
	if err == nil {
		t.Fatal("permanently dropping server did not error out")
	}
	if res.Retries != 2 {
		t.Fatalf("%d retries before giving up, want the full budget of 2", res.Retries)
	}
	if res.Sent != 0 {
		t.Fatalf("%d requests counted sent despite never being answered", res.Sent)
	}
}

// TestFireHTTPMultiPerTargetTallies: spraying several targets keeps
// per-replica tallies that sum to the total, and each target's outcomes
// reflect its own behaviour.
func TestFireHTTPMultiPerTargetTallies(t *testing.T) {
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ok.Close()
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer shedding.Close()

	const n = 40
	total, per, err := FireHTTP([]string{ok.URL, shedding.URL}, testSystem(), n, 3, fastFire(1))
	if err != nil {
		t.Fatal(err)
	}
	if total.Sent != n || per[0].Sent+per[1].Sent != n {
		t.Fatalf("sent %d total, per-target %d+%d, want %d", total.Sent, per[0].Sent, per[1].Sent, n)
	}
	if per[0].Sent == 0 || per[1].Sent == 0 {
		t.Fatalf("seeded spray starved a target: %d vs %d", per[0].Sent, per[1].Sent)
	}
	if per[0].Admitted != per[0].Sent || per[0].Shed != 0 {
		t.Fatalf("healthy target tallied %+v", per[0])
	}
	if per[1].Shed != per[1].Sent || per[1].Admitted != 0 {
		t.Fatalf("shedding target tallied %+v", per[1])
	}
	if total.Admitted != per[0].Admitted || total.Shed != per[1].Shed {
		t.Fatalf("total %+v does not sum the per-target tallies", total)
	}
}
