package workload

import (
	"fmt"
	"math/rand"
)

// MMPP is a two-state Markov-modulated Poisson process: arrivals are
// Poisson at RateLow in the quiet state and RateHigh in the bursty state,
// with exponential sojourns (MeanLow, MeanHigh time units). It is the
// standard model for arrival burstiness beyond Poisson and complements
// the service-time CV knob of the request-level simulator: the paper's
// formulation assumes plain Poisson arrivals per slot, and MMPP measures
// what that assumption is worth.
type MMPP struct {
	RateLow, RateHigh float64 // arrival rates per state
	MeanLow, MeanHigh float64 // mean sojourn per state, time units
}

// Validate checks the process parameters.
func (p MMPP) Validate() error {
	if p.RateLow < 0 || p.RateHigh <= 0 {
		return fmt.Errorf("workload: MMPP rates %g/%g invalid", p.RateLow, p.RateHigh)
	}
	if p.MeanLow <= 0 || p.MeanHigh <= 0 {
		return fmt.Errorf("workload: MMPP sojourns %g/%g invalid", p.MeanLow, p.MeanHigh)
	}
	return nil
}

// MeanRate returns the long-run average arrival rate: the sojourn-weighted
// mix of the two state rates.
func (p MMPP) MeanRate() float64 {
	return (p.RateLow*p.MeanLow + p.RateHigh*p.MeanHigh) / (p.MeanLow + p.MeanHigh)
}

// Arrivals generates the arrival instants in [0, horizon), deterministic
// in the seed. The process starts in the quiet state.
func (p MMPP) Arrivals(horizon float64, seed int64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: non-positive horizon %g", horizon)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	t := 0.0
	high := false
	stateEnd := rng.ExpFloat64() * p.MeanLow
	for t < horizon {
		rate, mean := p.RateLow, p.MeanLow
		if high {
			rate, mean = p.RateHigh, p.MeanHigh
		}
		var next float64
		if rate > 0 {
			next = t + rng.ExpFloat64()/rate
		} else {
			next = horizon + stateEnd + 1 // no arrivals in a zero-rate state
		}
		if next < stateEnd && next < horizon {
			out = append(out, next)
			t = next
			continue
		}
		// State switch (or horizon) comes first.
		if stateEnd >= horizon {
			break
		}
		t = stateEnd
		high = !high
		if high {
			mean = p.MeanHigh
		} else {
			mean = p.MeanLow
		}
		stateEnd = t + rng.ExpFloat64()*mean
	}
	return out, nil
}
