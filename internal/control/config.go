package control

// The loop's settings, conservative on purpose: a ±15% dead band with
// ±7.5% re-entry hysteresis, gain ½, ramp ±0.25 per tick.
const (
	// TicksPerSlot is how many control ticks subdivide each slot; the
	// controller samples and (maybe) actuates every SlotLen/TicksPerSlot
	// of virtual time. Exported for the hosts that drive Tick.
	TicksPerSlot = 8
	// deadband is the relative deviation |achieved/planned − 1| a stream
	// must exceed before the controller reacts to it at all.
	deadband = 0.15
	// reentryBand is the deviation below which an active stream re-enters
	// the dead band (hysteresis: reentryBand < deadband, so a stream
	// hovering at the threshold cannot flap).
	reentryBand = deadband / 2
	// gain is the proportional step toward the target multiplier per
	// tick, in (0, 1]: newMult = mult + gain·(target − mult). Gains below
	// 1 make the loop a first-order lag — it approaches the target
	// monotonically and cannot overshoot.
	gain = 0.5
	// maxStep bounds the per-tick multiplier change (the ramp limit).
	maxStep = 0.25
	// minMult and maxMult clamp the demand-tracking target multiplier.
	// Hard health caps (MaxRate headroom, a slow center's service
	// fraction) may push the target below minMult — safety beats floor.
	minMult = 0.1
	maxMult = 4.0
	// minSamples is the fewest new offered requests a stream needs in a
	// tick window before its measured ratio is trusted; below it the
	// stream reads as on-plan.
	minSamples = 16
	// thinBandSigmas widens the dead band for thin streams to the
	// sampling noise: with d offered requests in the window the measured
	// ratio has relative standard deviation ≈ 1/√d, and a stream only
	// activates past max(deadband, thinBandSigmas/√d). Ordinary Poisson
	// fluctuation then cannot actuate a thin stream, while genuine drift
	// (a flash crowd's 50–100% deviation) clears the band immediately.
	thinBandSigmas = 4.0
)
