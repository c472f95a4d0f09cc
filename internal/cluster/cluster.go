// Package cluster replicates the dispatch gateway into a fleet: one
// control plane (a Publisher wrapping the slot engine's Driver) plans
// each slot, stamps the compiled routing table with a monotonically
// increasing epoch, and publishes it; N data-plane Replicas pull the
// table — over HTTP long-poll in production, or synchronously in the
// deterministic Fleet harness — fence it against their current epoch
// (stale, duplicate and out-of-order deliveries are rejected and
// counted, never applied), subdivide the fleet-wide plan into their own
// share of every lane's budget, and hot-swap it into a local Gateway.
//
// The failure discipline mirrors the planning plane's: a replica that
// misses a slot boundary keeps serving its last good epoch with a rising
// staleness gauge, and past a TTL it escalates to
// conservative-shed serving (the stale plan at a fraction of its budget)
// rather than guessing. A replica that stops heartbeating is evicted
// after consecutive missed health rounds and its share re-spreads across
// the survivors on the next epoch; it rejoins by heartbeating again. A
// dead control plane publishes nothing — the whole fleet degrades to
// last-known-epoch serving and reconverges the moment publishing
// resumes. Requests are shed, never errored: the fleet's invariant is
// the gateway's, extended across processes.
package cluster

import "fmt"

// The fleet's failure discipline.
const (
	// staleSlots is the staleness TTL: after serving this many slot
	// boundaries without a fresh epoch, a replica downgrades to
	// conservative-shed serving.
	staleSlots = 2
	// staleShare is the budget fraction a stale replica keeps serving at
	// once past the TTL.
	staleShare = 0.5
	// failThreshold is the number of consecutive missed health rounds
	// after which the control plane evicts a replica.
	failThreshold = 2
)

// Config is the cluster block of a scenario configuration: the fleet
// size and the plan-pull transport's wall-clock settings, a deployment's
// to choose. The zero value is a fleet of one; WithDefaults fills the rest.
type Config struct {
	// Replicas is the gateway fleet size. 0 means one replica — a lone
	// gateway is a fleet of one, served down the same path as any other.
	Replicas int `json:"replicas"`
	// PollWaitMs is how long the control plane holds a long-poll open
	// waiting for a fresher epoch before answering 204. Default 2000.
	PollWaitMs int `json:"pollWaitMs,omitempty"`
	// MaxAttempts bounds one pull round's retries before the subscriber
	// gives up on the round (and keeps serving stale). Default 4.
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// BaseBackoffMs is the first retry backoff; it doubles per attempt.
	// Default 50.
	BaseBackoffMs int `json:"baseBackoffMs,omitempty"`
	// TimeoutMs is the per-attempt transport deadline (on top of the
	// long-poll hold). Default 1000.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// WithDefaults fills unset settings: one replica, and the transport's
// timings.
func (c Config) WithDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.PollWaitMs <= 0 {
		c.PollWaitMs = 2000
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoffMs <= 0 {
		c.BaseBackoffMs = 50
	}
	if c.TimeoutMs <= 0 {
		c.TimeoutMs = 1000
	}
	return c
}

// Validate rejects configurations the defaults cannot repair.
func (c Config) Validate() error {
	if c.Replicas < 0 {
		return fmt.Errorf("cluster: %d replicas", c.Replicas)
	}
	if c.Replicas > 64 {
		return fmt.Errorf("cluster: %d replicas exceeds the supported fleet size (64)", c.Replicas)
	}
	return nil
}

// ReplicaID names fleet replica i ("r0", "r1", ...): the identity used
// for membership, heartbeats and trace events.
func ReplicaID(i int) string { return fmt.Sprintf("r%d", i) }
