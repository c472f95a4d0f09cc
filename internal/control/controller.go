// Package control closes the loop the planner leaves open: the LP
// commits one routing table per slot against *forecast* arrivals, and
// dispatch then serves it open-loop — a flash crowd on one front-end or
// a browning-out center silently turns into lane error and shed until
// the next solve. The sub-slot Controller here compares each stream's
// achieved offered rate (the gateway's per-stream draw counters) against
// the plan's arrival budget every control tick, computes corrective
// per-lane multipliers, and publishes a re-scaled table through the
// existing atomic hot-swap — the 0-alloc Gateway.Handle hot path never
// changes, gateways only swap a pointer.
//
// Robustness over reactivity, in four layers:
//
//   - Guarded actuation: a proportional gain < 1 toward a clamped
//     target, a per-tick ramp limit, and dead-band hysteresis mean a
//     step disturbance settles monotonically (no overshoot ringing) and
//     in-band noise produces zero actuations. The controller senses
//     *offered* traffic — demand, which actuation does not change — so
//     the loop has no self-feedback path to oscillate through.
//   - Graceful degradation: stale counters, a swapped-out table, a
//     non-positive sample window, a failed re-scale or a rejected
//     publish freeze the controller at the last safe table for the rest
//     of the slot, raising the control_frozen gauge instead of guessing.
//   - Fleet propagation: corrections ride the epoch-fenced publisher as
//     sub-epochs (slot epoch · tick sequence) with the same
//     stale/duplicate fencing; a partitioned replica keeps its last
//     fenced table.
//   - Hard safety caps: per-lane boosts never exceed the compiled
//     MaxRate headroom (the committed plan's shares plus the center's
//     unallocated slack), so an actuated table always stays inside the
//     capacity/deadline envelope core.Verify proved feasible.
package control

import (
	"fmt"
	"math"
	"strings"

	"profitlb/internal/dispatch"
	"profitlb/internal/obs"
)

// minTarget floors the target multiplier under hard health caps: even a
// deeply sagged center keeps a sliver of its lane rather than a zero
// rate the alias builder would have to special-case.
const minTarget = 1e-3

// actuationEps is the largest multiplier change the controller considers
// "no change" — below it a tick publishes nothing.
const actuationEps = 1e-9

// coverageEps is the round-off allowed on a plant's reported coverage.
const coverageEps = 1e-9

// Sample is one observation of the plant: the per-stream offered
// counters of the serving state the controller last published.
type Sample struct {
	// OK is false when the observation is unusable: the plant is serving
	// a different (epoch, sub) than the controller's — a slot boundary or
	// a re-spread won a race — or counters are unavailable.
	OK bool
	// StreamOffered is the cumulative per-stream draw count since the
	// current table was installed, indexed k·S+s.
	StreamOffered []int64
	// Coverage is the fraction of serving capacity the counters cover:
	// inSync/serving, below 1 only when partitioned replicas cannot report
	// against the current sub-epoch.
	Coverage float64
}

// Plant is what the controller senses and actuates: in production a
// FleetPlant, the replicas behind the epoch-fenced publisher.
type Plant interface {
	// Sample observes the per-stream offered counters, valid only if the
	// plant still serves exactly (epoch, sub).
	Sample(epoch, sub uint64) Sample
	// Publish installs a corrected table, reporting whether any serving
	// state actually applied it.
	Publish(t *dispatch.Table, now float64) bool
}

// Controller is the deterministic sub-slot feedback loop. It is driven
// by a single goroutine (the slot loop or the load harness): BeginSlot
// at each slot boundary with the committed table, then Tick every
// SlotLen/TicksPerSlot of virtual time. All the work — sampling, target
// computation, re-scaling, alias rebuilds — happens here, off the
// request path.
type Controller struct {
	dcfg  dispatch.Config
	plant Plant
	scope *obs.Scope

	// Slot state, reset by BeginSlot.
	base         *dispatch.Table
	mult         []float64 // committed per-lane multiplier
	scratch      []float64 // next multiplier, committed only on publish
	ratio        []float64 // per-stream achieved/planned ratio
	active       []bool    // per-stream dead-band hysteresis state
	prevOff      []int64   // offered baseline at the last sample
	prevNow      float64
	sub          uint64
	frozen       bool
	tick         int
	centerFactor []float64 // per-center effective service fraction caps

	// Lifetime tallies and the deterministic actuation log.
	actuations int
	freezes    int
	log        []string

	cTicks, cActs, cFreezes *obs.Counter
	gFrozen, gSub           *obs.Gauge
}

// NewController builds a controller over the plant. The dispatch config
// must be the one the plant's tables were compiled under (it sizes the
// re-scaled token buckets); scope may be nil.
func NewController(dcfg dispatch.Config, plant Plant, scope *obs.Scope) *Controller {
	c := &Controller{
		dcfg:  dcfg.WithDefaults(),
		plant: plant,
		scope: scope,
	}
	if scope != nil && scope.Metrics != nil {
		c.cTicks = scope.Counter("control_ticks_total")
		c.cActs = scope.Counter("control_actuations_total")
		c.cFreezes = scope.Counter("control_freezes_total")
		c.gFrozen = scope.Gauge("control_frozen")
		c.gSub = scope.Gauge("control_sub")
	}
	return c
}

// BeginSlot arms the controller on a freshly committed table: all
// multipliers reset to 1, the dead band re-engages everywhere, the
// offered baseline zeroes (a new install resets the plant's counters),
// and any freeze lifts. centerFactor optionally caps each center's
// target multiplier at its effective in-slot service fraction (a
// slow-center fault's Factor); nil means every center is nominal. A nil
// base disarms the controller until the next BeginSlot.
func (c *Controller) BeginSlot(base *dispatch.Table, start float64, centerFactor []float64) {
	c.base = base
	c.prevNow = start
	c.frozen = false
	c.tick = 0
	c.centerFactor = centerFactor
	c.gFrozen.Set(0)
	if base == nil {
		return
	}
	c.sub = base.Sub
	c.gSub.Set(float64(c.sub))
	streams := base.K() * base.S()
	c.ratio = resizeF(c.ratio, streams)
	c.prevOff = resizeI(c.prevOff, streams)
	c.active = resizeB(c.active, streams)
	c.mult = resizeF(c.mult, len(base.Lanes))
	c.scratch = resizeF(c.scratch, len(base.Lanes))
	for i := range c.mult {
		c.mult[i] = 1
	}
}

// Frozen reports whether the controller froze this slot.
func (c *Controller) Frozen() bool { return c.frozen }

// Sub returns the sub-epoch of the controller's last published state.
func (c *Controller) Sub() uint64 { return c.sub }

// Actuations returns the lifetime count of published corrections.
func (c *Controller) Actuations() int { return c.actuations }

// Freezes returns the lifetime count of freezes.
func (c *Controller) Freezes() int { return c.freezes }

// Log returns the deterministic actuation log: one line per actuation
// or freeze, in order, with floats rendered at full %.9g precision —
// identical seeds and counter streams produce byte-identical logs.
func (c *Controller) Log() []string { return c.log }

// Tick runs one control cycle at virtual time now and reports whether a
// correction was published. A disarmed (nil-base) or frozen controller
// ticks inertly.
func (c *Controller) Tick(now float64) bool {
	if c.base == nil {
		return false
	}
	c.tick++
	c.cTicks.Inc()
	if c.frozen {
		return false
	}
	window := now - c.prevNow
	if window <= 0 || math.IsNaN(window) {
		c.freeze("clock")
		return false
	}
	smp := c.plant.Sample(c.base.Epoch, c.sub)
	K, S := c.base.K(), c.base.S()
	if !smp.OK || len(smp.StreamOffered) != K*S || smp.Coverage <= 0 || smp.Coverage > 1+coverageEps {
		c.freeze("stale-counters")
		return false
	}
	for k := 0; k < K; k++ {
		for s := 0; s < S; s++ {
			i := k*S + s
			d := smp.StreamOffered[i] - c.prevOff[i]
			if d < 0 {
				// Counters ran backwards: the table was swapped under us.
				c.freeze("stale-counters")
				return false
			}
			_, arrival := c.base.Planned(k, s)
			r := 1.0
			if d >= minSamples && arrival > 0 {
				r = (float64(d) / window) / (arrival * smp.Coverage)
			}
			// Dead-band hysteresis: enter actuation at deadband deviation,
			// re-enter the band only below reentryBand. Thin streams widen
			// both to thinBandSigmas σ of the window's sampling noise.
			band, reentry := deadband, reentryBand
			if d > 0 {
				if nb := thinBandSigmas / math.Sqrt(float64(d)); nb > band {
					band, reentry = nb, nb/2
				}
			}
			dev := math.Abs(r - 1)
			if c.active[i] {
				if dev <= reentry {
					c.active[i] = false
				}
			} else if dev >= band {
				c.active[i] = true
			}
			if !c.active[i] {
				r = 1
			}
			c.ratio[i] = clamp(r, minMult, maxMult)
		}
	}
	// Per-lane targets: the stream's demand ratio, hard-capped by the
	// lane's MaxRate headroom and its center's effective service
	// fraction, then a gain-limited ramp step from the current
	// multiplier. gain ≤ 1 keeps every step inside [mult, target], so
	// the loop approaches a sustained disturbance monotonically.
	maxDelta := 0.0
	changed := 0
	for li := range c.base.Lanes {
		ln := &c.base.Lanes[li]
		target := c.ratio[ln.K*S+ln.S]
		if ln.MaxRate > 0 && ln.Rate > 0 {
			if cap := ln.MaxRate / ln.Rate; target > cap {
				target = cap
			}
		}
		if c.centerFactor != nil && ln.L < len(c.centerFactor) {
			if cf := c.centerFactor[ln.L]; cf < target {
				target = cf
			}
		}
		if target < minTarget {
			target = minTarget
		}
		old := c.mult[li]
		step := clamp(gain*(target-old), -maxStep, maxStep)
		nm := old + step
		c.scratch[li] = nm
		if delta := math.Abs(nm - old); delta > actuationEps {
			changed++
			if delta > maxDelta {
				maxDelta = delta
			}
		}
	}
	if changed == 0 {
		// Inside the dead band (or converged): no publish, just advance
		// the sampling baseline.
		copy(c.prevOff, smp.StreamOffered)
		c.prevNow = now
		return false
	}
	next, err := c.base.Rescale(c.scratch, c.sub+1, c.dcfg)
	if err != nil {
		c.freeze("rescale")
		return false
	}
	if !c.plant.Publish(next, now) {
		c.freeze("publish-rejected")
		return false
	}
	c.sub++
	copy(c.mult, c.scratch)
	// The install reset the plant's counters; restart the baseline.
	for i := range c.prevOff {
		c.prevOff[i] = 0
	}
	c.prevNow = now
	c.actuations++
	c.cActs.Inc()
	c.gSub.Set(float64(c.sub))
	c.log = append(c.log, c.actuationLine(changed))
	if c.scope.Enabled() {
		c.scope.Emit(obs.Event{
			Kind: obs.KindControlActuation, Slot: c.base.Slot, Epoch: c.base.Epoch, Sub: c.sub,
			Values: map[string]float64{
				"tick":         float64(c.tick),
				"lanesChanged": float64(changed),
				"maxStep":      maxDelta,
			},
		})
	}
	return true
}

// freeze stops actuation for the rest of the slot at the last safe
// table: being wrong quietly is worse than being stale loudly.
func (c *Controller) freeze(reason string) {
	c.frozen = true
	c.freezes++
	c.cFreezes.Inc()
	c.gFrozen.Set(1)
	c.log = append(c.log, fmt.Sprintf("tick=%d freeze reason=%s", c.tick, reason))
	if c.scope.Enabled() {
		c.scope.Emit(obs.Event{
			Kind: obs.KindControlFrozen, Slot: c.base.Slot, Epoch: c.base.Epoch, Sub: c.sub, Reason: reason,
			Values: map[string]float64{"tick": float64(c.tick)},
		})
	}
}

// actuationLine renders one deterministic log line: the tick, the new
// sub-epoch, and every changed lane's new multiplier in lane order.
func (c *Controller) actuationLine(changed int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tick=%d sub=%d changed=%d", c.tick, c.sub, changed)
	for li := range c.scratch {
		if math.Abs(c.scratch[li]-1) > actuationEps {
			fmt.Fprintf(&b, " l%d=%.9g", li, c.scratch[li])
		}
	}
	return b.String()
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeI(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}
