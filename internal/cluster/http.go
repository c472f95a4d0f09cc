package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Handler serves the control plane's distribution endpoint:
//
//	GET /plan?after=<epoch>&sub=<sub-epoch>&id=<replica>&wait=<ms>
//
// The request heartbeats the replica (pulling IS proof of life — a
// dedicated beat round-trip would only add a failure mode), then
// long-polls: if an epoch newer than after is already published it
// answers immediately, otherwise it holds the request up to wait
// milliseconds (capped by PollWaitMs) and answers 204 if nothing fresher
// arrives. A control plane that is down answers nothing: its replicas see
// connection errors.
func (p *Publisher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/plan", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		after, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
		afterSub, _ := strconv.ParseUint(r.URL.Query().Get("sub"), 10, 64)
		slot := 0
		if cur := p.Current(); cur != nil {
			slot = cur.Slot
		}
		p.Beat(r.URL.Query().Get("id"), slot)
		// A first-contact (or rejoin) beat changes membership: re-spread
		// the current plan under a fresh epoch right away rather than
		// making the joiner wait out the slot. No-op when nothing changed.
		p.Respread(slot)
		waitMs := p.cfg.PollWaitMs
		if v, err := strconv.Atoi(r.URL.Query().Get("wait")); err == nil && v >= 0 && v < waitMs {
			waitMs = v
		}
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(waitMs)*time.Millisecond)
		defer cancel()
		pub := p.Wait(after, afterSub, ctx.Done())
		if pub == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(pub)
	})
	return mux
}

// Subscriber pulls publications from a remote control plane into a
// local Replica with the telemetry-feed transport discipline: a
// per-attempt deadline, bounded retries with exponential backoff inside
// each pull round, and — past the retry budget — giving the round up and
// starting the next, because a replica that cannot reach its control
// plane must keep serving its last epoch, not spin or crash.
type Subscriber struct {
	// URL is the control plane base URL (the Handler mount point).
	URL string
	// Replica receives applied publications.
	Replica *Replica
	// Now maps wall time to the virtual time installs are stamped with.
	Now func() float64
	// Client defaults to http.DefaultClient.
	Client *http.Client

	cfg  Config
	stop chan struct{}
	done sync.WaitGroup

	mu       sync.Mutex
	rounds   int64 // completed pull rounds (fresh epoch, 204, or give-up)
	failures int64 // transport attempts that errored
	lastErr  error
}

// NewSubscriber wires a replica to a remote control plane.
func NewSubscriber(url string, r *Replica, cfg Config, now func() float64) *Subscriber {
	return &Subscriber{
		URL:     url,
		Replica: r,
		Now:     now,
		cfg:     cfg.WithDefaults(),
		stop:    make(chan struct{}),
	}
}

// Start launches the pull loop.
func (s *Subscriber) Start() {
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		for {
			select {
			case <-s.stop:
				return
			default:
			}
			s.pullRound()
		}
	}()
}

// Stop terminates the pull loop and waits for it to exit.
func (s *Subscriber) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.done.Wait()
}

// Stats returns the pull-round and transport-failure tallies plus the
// last transport error (nil when the last round was clean).
func (s *Subscriber) Stats() (rounds, failures int64, lastErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds, s.failures, s.lastErr
}

// pullRound performs one long-poll with bounded retries. Connection
// errors and 5xx answers back off and retry; 204 (nothing fresher) and a
// fresh publication both end the round cleanly; exhausting the retry
// budget ends it dirty — the replica just stays on its last epoch.
func (s *Subscriber) pullRound() {
	var lastErr error
	for attempt := 0; attempt < s.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			backoff := time.Duration(s.cfg.BaseBackoffMs<<(attempt-1)) * time.Millisecond
			select {
			case <-time.After(backoff):
			case <-s.stop:
				return
			}
		}
		pub, err := s.pull()
		if err == nil {
			if pub != nil {
				if _, err := s.Replica.Apply(pub, s.Now()); err != nil {
					lastErr = err
					continue // corrupt payload: retry, the next pull may be clean
				}
			}
			s.mu.Lock()
			s.rounds++
			s.lastErr = nil
			s.mu.Unlock()
			return
		}
		lastErr = err
		s.mu.Lock()
		s.failures++
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.rounds++
	s.lastErr = lastErr
	s.mu.Unlock()
}

// pull performs one long-poll attempt. A nil, nil return means 204.
func (s *Subscriber) pull() (*Publication, error) {
	client := s.Client
	if client == nil {
		client = http.DefaultClient
	}
	deadline := time.Duration(s.cfg.TimeoutMs+s.cfg.PollWaitMs) * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	url := fmt.Sprintf("%s/plan?after=%d&sub=%d&id=%s&wait=%d",
		s.URL, s.Replica.Gateway().Epoch(), s.Replica.Gateway().Sub(), s.Replica.ID, s.cfg.PollWaitMs)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return nil, nil
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("cluster: control plane answered %s", resp.Status)
	}
	var pub Publication
	if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
		return nil, fmt.Errorf("cluster: decoding publication: %w", err)
	}
	return &pub, nil
}
