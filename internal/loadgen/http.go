package loadgen

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"profitlb/internal/datacenter"
)

// HTTPResult tallies a burst of requests fired at a live gateway over
// HTTP (the `profitlb serve` front-end).
type HTTPResult struct {
	Sent, Admitted, Shed, Rejected int
	// Retries counts transport attempts beyond the first — connection
	// errors that a retry recovered (or eventually gave up on).
	Retries int
}

// add merges another tally into this one.
func (r *HTTPResult) add(o HTTPResult) {
	r.Sent += o.Sent
	r.Admitted += o.Admitted
	r.Shed += o.Shed
	r.Rejected += o.Rejected
	r.Retries += o.Retries
}

// FireConfig shapes the HTTP client discipline: a per-request deadline
// and bounded retry-with-backoff for *connection* errors only. An HTTP
// answer — any status — is never retried: 429 means the gateway shed the
// request on purpose, and retrying sheds would turn admission control
// into a retry storm, the exact failure amplification the budget exists
// to prevent.
type FireConfig struct {
	// Timeout is the per-request deadline (default 10s).
	Timeout time.Duration
	// Retries is how many times a failed connection is retried before
	// the burst errors out (default 3).
	Retries int
	// Backoff is the first retry's delay; it doubles per attempt
	// (default 25ms).
	Backoff time.Duration
}

// withDefaults fills unset fields.
func (fc FireConfig) withDefaults() FireConfig {
	if fc.Timeout <= 0 {
		fc.Timeout = 10 * time.Second
	}
	if fc.Retries <= 0 {
		fc.Retries = 3
	}
	if fc.Backoff <= 0 {
		fc.Backoff = 25 * time.Millisecond
	}
	return fc
}

// FireHTTP fires n requests at gateway dispatch endpoints with the given
// client discipline, spreading them across every (front-end, class) pair
// in a seeded random order. Each request goes to a seeded-random target
// among targets (base URLs: the same balancer model Run uses); a lone
// target, like Run's lone replica, makes no target draw. 200 counts as
// admitted, 429 as shed, anything else (unknown endpoint, draining 503) as
// rejected. It returns the total and, in target order, the per-target
// tallies a caller reconciles each replica's served counts against. It is
// the client half of the serve smoke test and of `profitlb loadtest
// -addr`.
func FireHTTP(targets []string, sys *datacenter.System, n int, seed int64, fc FireConfig) (HTTPResult, []HTTPResult, error) {
	if len(targets) == 0 {
		return HTTPResult{}, nil, fmt.Errorf("loadgen: no targets to fire at")
	}
	fc = fc.withDefaults()
	var total HTTPResult
	per := make([]HTTPResult, len(targets))
	client := &http.Client{Timeout: fc.Timeout}
	rng := rand.New(rand.NewSource(seed))
	S, K := sys.S(), sys.K()
	if S == 0 || K == 0 {
		return total, per, fmt.Errorf("loadgen: system has no front-ends or classes")
	}
	var err error
	for i := 0; i < n; i++ {
		t := 0
		if len(targets) > 1 {
			t = rng.Intn(len(targets))
		}
		s := rng.Intn(S)
		k := rng.Intn(K)
		u := fmt.Sprintf("%s/dispatch/%s/%s", targets[t],
			url.PathEscape(sys.FrontEnds[s].Name), url.PathEscape(sys.Classes[k].Name))
		var code int
		if code, err = fire(client, u, fc, &per[t]); err != nil {
			break
		}
		per[t].Sent++
		switch code {
		case http.StatusOK:
			per[t].Admitted++
		case http.StatusTooManyRequests:
			per[t].Shed++
		default:
			per[t].Rejected++
		}
	}
	for i := range per {
		total.add(per[i])
	}
	return total, per, err
}

// fire issues one request, retrying connection errors with doubling
// backoff up to the budget. Only transport failures retry; every HTTP
// status — 200, 429, 503, whatever — is a definitive answer.
func fire(client *http.Client, u string, fc FireConfig, res *HTTPResult) (int, error) {
	var lastErr error
	for attempt := 0; attempt <= fc.Retries; attempt++ {
		if attempt > 0 {
			res.Retries++
			time.Sleep(fc.Backoff << (attempt - 1))
		}
		resp, err := client.Get(u)
		if err != nil {
			lastErr = err
			continue
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	return 0, fmt.Errorf("loadgen: firing %s: %d attempts failed: %w", u, fc.Retries+1, lastErr)
}
