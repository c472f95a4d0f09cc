// Package forecast provides arrival-rate prediction for the dispatcher.
//
// The paper runs its optimization on the *average arrival rates during a
// slot* and explicitly defers forecasting to existing methods, naming the
// Kalman filter. This package supplies that optional substrate: a scalar
// random-walk Kalman filter per request type, plus a helper that turns a
// realized workload trace into the one-slot-ahead predictions a deployed
// dispatcher would actually plan on.
package forecast

import (
	"errors"
	"fmt"

	"profitlb/internal/workload"
)

// ProcessRel and MeasureRel are the noise the feed layer's filters give
// an element, relative to its magnitude — Q = (ProcessRel·scale)², R
// likewise: scale-free across prices and rates.
const (
	ProcessRel = 0.15
	MeasureRel = 0.05
)

// Kalman is a scalar Kalman filter with a random-walk state model:
//
//	x_t = x_{t-1} + w,  w ~ N(0, ProcessVar)
//	z_t = x_t + v,      v ~ N(0, MeasureVar)
//
// It tracks slowly drifting arrival rates and smooths slot-to-slot noise.
type Kalman struct {
	ProcessVar float64 // Q: how fast the true rate drifts
	MeasureVar float64 // R: how noisy the per-slot observation is

	x float64 // state estimate
	p float64 // estimate variance
	n int     // observations consumed
}

// NewKalman returns a filter with the given noise parameters. Both must be
// positive.
func NewKalman(processVar, measureVar float64) (*Kalman, error) {
	if processVar <= 0 || measureVar <= 0 {
		return nil, fmt.Errorf("forecast: variances must be positive, got Q=%g R=%g", processVar, measureVar)
	}
	return &Kalman{ProcessVar: processVar, MeasureVar: measureVar, p: 1e6}, nil
}

// Observe feeds one measurement and returns the updated estimate.
func (k *Kalman) Observe(z float64) float64 {
	// Predict.
	p := k.p + k.ProcessVar
	// Update.
	gain := p / (p + k.MeasureVar)
	k.x += gain * (z - k.x)
	k.p = (1 - gain) * p
	k.n++
	return k.x
}

// Predict returns the one-step-ahead estimate (the random-walk model
// predicts the current state) and its variance.
func (k *Kalman) Predict() (estimate, variance float64) {
	return k.x, k.p + k.ProcessVar
}

// PredictH returns the h-step-ahead forecast trajectory. Under the
// random-walk state model the mean is flat — E[x_{t+i}] = x_t for every
// i — while the variance widens linearly, p + i·Q, because each future
// slot adds one more process-noise innovation with no measurement to
// correct it. estimates[i-1] and variances[i-1] are the i-step-ahead
// values, so PredictH(1) agrees with Predict exactly. h must be ≥ 1.
func (k *Kalman) PredictH(h int) (estimates, variances []float64, err error) {
	if h < 1 {
		return nil, nil, fmt.Errorf("forecast: horizon %d, want >= 1", h)
	}
	estimates = make([]float64, h)
	variances = make([]float64, h)
	for i := 1; i <= h; i++ {
		estimates[i-1] = k.x
		variances[i-1] = k.p + float64(i)*k.ProcessVar
	}
	return estimates, variances, nil
}

// Warm reports whether the filter has consumed at least min observations,
// i.e. whether Predict is anchored to data rather than the prior. Feed
// fallback chains (internal/feed) gate the forecast estimator tier on it.
func (k *Kalman) Warm(min int) bool { return k.n >= min }

// ErrShortTrace is returned when a trace is too short to predict from.
var ErrShortTrace = errors.New("forecast: trace needs at least two slots")

// PredictTrace produces the one-slot-ahead prediction trace for tr: slot t
// of the result is the filter's forecast after observing slots 0..t-1.
// Slot 0 falls back to the first observation (the filter has no history).
// A deployed dispatcher plans slot t on exactly this information.
func PredictTrace(tr *workload.Trace, processVar, measureVar float64) (*workload.Trace, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Slots() < 2 {
		return nil, ErrShortTrace
	}
	K := tr.Types()
	filters := make([]*Kalman, K)
	for k := 0; k < K; k++ {
		f, err := NewKalman(processVar, measureVar)
		if err != nil {
			return nil, err
		}
		filters[k] = f
	}
	out := &workload.Trace{Name: tr.Name + "/predicted", Rates: make([][]float64, tr.Slots())}
	for s := 0; s < tr.Slots(); s++ {
		row := make([]float64, K)
		for k := 0; k < K; k++ {
			if s == 0 {
				row[k] = tr.At(0, k)
			} else {
				est, _ := filters[k].Predict()
				if est < 0 {
					est = 0
				}
				row[k] = est
			}
			filters[k].Observe(tr.At(s, k))
		}
		out.Rates[s] = row
	}
	return out, nil
}
