// Package dispatch is the online serving plane: it executes a committed
// core.Plan at per-request granularity. The paper's optimizer emits a
// per-slot dispatch matrix λ_{k,s,i,l} and CPU shares φ; everything else
// in this repo *evaluates* those plans in a slot-granular simulator.
// This package makes the plan answer for individual arrivals:
//
//   - Compile turns a committed plan into a per-(type, front-end) routing
//     table: Walker alias tables for O(1) weighted sampling over the
//     plan's (level, center) lanes, deterministic under a seed.
//   - Every lane carries a token bucket (rate λ, configurable burst) that
//     enforces the plan's arrival budget request by request: a request is
//     routed by the alias draw and then admitted or shed against its
//     lane's bucket.
//   - Gateway holds the current compiled table behind an atomic pointer
//     and hot-swaps it at slot boundaries; the request path never locks
//     anything but its own lane's bucket and allocates nothing.
//   - Driver runs the background planner loop: each slot it pulls the
//     planner-facing input from a PlanSource (the simulator's fault- and
//     feed-aware InputSource in production use), asks the planner — a raw
//     core planner or a resilient fallback chain — for the slot's plan,
//     verifies it and compiles it for internal/cluster's publisher, whose
//     replicas (one, for a lone gateway) install it. A slot whose plan
//     cannot be produced degrades to an all-shed table instead of erroring.
//
// The package is exercised by internal/loadgen (closed/open-loop replay in
// virtual time) and by the `profitlb serve` HTTP front-end.
package dispatch

import (
	"fmt"
	"math"

	"profitlb/internal/datacenter"
)

// Defaults for Config fields left zero.
const (
	// DefaultBurst is the token-bucket capacity as a fraction of the
	// lane's slot budget λT.
	DefaultBurst = 0.05
	// DefaultMinBurst floors every lane's bucket capacity, in requests,
	// so thin lanes survive ordinary Poisson clumping.
	DefaultMinBurst = 8.0
	// DefaultSlotSeconds is the wall-clock length `profitlb serve` gives
	// one plan slot when the scenario does not say otherwise.
	DefaultSlotSeconds = 60.0
	// DefaultDrainSeconds bounds the graceful-drain wait on shutdown.
	DefaultDrainSeconds = 10.0
)

// Config tunes the serving plane. It is the `dispatch` block of a
// scenario JSON file; zero values mean the defaults above, except
// SlotSeconds, which must be set explicitly when the block is present
// (a gateway cannot run slots of no length).
type Config struct {
	// Burst sets every lane's token-bucket capacity as a fraction of the
	// lane's slot budget λ·T (0 means DefaultBurst). The capacity is
	// floored at MinBurst requests.
	Burst float64 `json:"burst,omitempty"`
	// MinBurst floors the bucket capacity in requests (0 means
	// DefaultMinBurst).
	MinBurst float64 `json:"minBurst,omitempty"`
	// SlotSeconds is the wall-clock duration `profitlb serve` maps onto
	// one plan slot (the system's Slot() T virtual time units). Required
	// when the config arrives via a scenario's dispatch block.
	SlotSeconds float64 `json:"slotSeconds,omitempty"`
	// Seed drives the alias draws; the same plan and seed reproduce the
	// identical routing-decision sequence per (type, front-end) stream.
	Seed uint64 `json:"seed,omitempty"`
	// FrontEnds optionally restricts which front-ends the HTTP gateway
	// exposes, by system front-end name. Empty exposes all of them.
	FrontEnds []string `json:"frontEnds,omitempty"`
	// DrainSeconds bounds the graceful drain on shutdown (0 means
	// DefaultDrainSeconds).
	DrainSeconds float64 `json:"drainSeconds,omitempty"`
}

// WithDefaults returns the config with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.Burst == 0 {
		c.Burst = DefaultBurst
	}
	if c.MinBurst == 0 {
		c.MinBurst = DefaultMinBurst
	}
	if c.SlotSeconds == 0 {
		c.SlotSeconds = DefaultSlotSeconds
	}
	if c.DrainSeconds == 0 {
		c.DrainSeconds = DefaultDrainSeconds
	}
	return c
}

// burst is the bucket-capacity rule: Burst of the lane's slot budget λ·T,
// times Subdivide's slack, floored at MinBurst requests. The product comes
// as two factors taken left to right — (λ, T) for an undivided table,
// (λT, √n) for a share — so every capacity rounds as it always has.
func (c Config) burst(a, b float64) float64 {
	return math.Max(c.MinBurst, c.Burst*a*b)
}

// Validate checks the config against the system it will serve. It is the
// gate behind the scenario `dispatch` JSON block, so it rejects what a
// hand-written file can get wrong: negative burst or floor, a zero or
// negative slot length, a negative drain bound, and front-end names the
// topology does not declare.
func (c *Config) Validate(sys *datacenter.System) error {
	if c == nil {
		return nil
	}
	if c.Burst < 0 {
		return fmt.Errorf("dispatch: negative burst %g", c.Burst)
	}
	if c.MinBurst < 0 {
		return fmt.Errorf("dispatch: negative minBurst %g", c.MinBurst)
	}
	if c.SlotSeconds <= 0 {
		return fmt.Errorf("dispatch: slot length %g seconds; a slot must have positive length", c.SlotSeconds)
	}
	if c.DrainSeconds < 0 {
		return fmt.Errorf("dispatch: negative drainSeconds %g", c.DrainSeconds)
	}
	seen := map[string]bool{}
	for _, name := range c.FrontEnds {
		if seen[name] {
			return fmt.Errorf("dispatch: front-end %q listed twice", name)
		}
		seen[name] = true
		found := false
		if sys != nil {
			for i := range sys.FrontEnds {
				if sys.FrontEnds[i].Name == name {
					found = true
					break
				}
			}
		}
		if !found {
			return fmt.Errorf("dispatch: unknown front-end %q", name)
		}
	}
	return nil
}

// splitmix64 is the SplitMix64 mixer: a full-period bijection on uint64
// used to derive per-request random draws from (seed, stream, sequence)
// without any allocation or shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// streamSeed mixes the table seed, slot and (k, s) stream identity into
// the base of the stream's per-request draw sequence.
func streamSeed(seed uint64, slot, k, s int) uint64 {
	x := splitmix64(seed ^ 0x6a09e667f3bcc908)
	x = splitmix64(x ^ uint64(int64(slot)))
	x = splitmix64(x ^ uint64(k)<<32 ^ uint64(s))
	return x
}
