package forecast

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"profitlb/internal/workload"
)

func TestNewKalmanValidation(t *testing.T) {
	if _, err := NewKalman(0, 1); err == nil {
		t.Fatal("want error for zero process variance")
	}
	if _, err := NewKalman(1, -1); err == nil {
		t.Fatal("want error for negative measure variance")
	}
}

func TestKalmanConvergesToConstant(t *testing.T) {
	k, err := NewKalman(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k.Observe(50)
	}
	est, v := k.Predict()
	if math.Abs(est-50) > 1e-6 {
		t.Fatalf("estimate %g, want 50", est)
	}
	if v <= 0 || v > 1 {
		t.Fatalf("variance %g unreasonable after 200 identical observations", v)
	}
}

func TestKalmanSmoothsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k, err := NewKalman(0.01, 25)
	if err != nil {
		t.Fatal(err)
	}
	var rawErr, filtErr float64
	truth := 100.0
	for i := 0; i < 500; i++ {
		z := truth + 5*rng.NormFloat64()
		est := k.Observe(z)
		if i > 50 {
			rawErr += math.Abs(z - truth)
			filtErr += math.Abs(est - truth)
		}
	}
	if filtErr >= rawErr {
		t.Fatalf("filter error %g not below raw noise %g", filtErr, rawErr)
	}
}

func TestKalmanTracksRamp(t *testing.T) {
	k, err := NewKalman(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 100; i++ {
		last = k.Observe(float64(i * 10))
	}
	// A random-walk filter lags a ramp but must stay within a few steps.
	if math.Abs(last-990) > 50 {
		t.Fatalf("estimate %g too far from 990", last)
	}
}

func TestPredictTrace(t *testing.T) {
	base := workload.WorldCupLike(workload.WorldCupConfig{Seed: 5})
	tr := workload.ShiftTypes("fe", base, 2, 4)
	pred, err := PredictTrace(tr, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Slots() != tr.Slots() || pred.Types() != tr.Types() {
		t.Fatal("shape mismatch")
	}
	if err := pred.Validate(); err != nil {
		t.Fatalf("prediction invalid: %v", err)
	}
	if pred.At(0, 0) != tr.At(0, 0) {
		t.Fatal("cold start should echo the first observation")
	}
	// The mean absolute percentage error past the cold start: a diurnal
	// trace with strong process noise tracks within ~50%.
	var mape float64
	for s := 1; s < tr.Slots(); s++ {
		for k := 0; k < tr.Types(); k++ {
			mape += math.Abs(pred.At(s, k)-tr.At(s, k)) / tr.At(s, k)
		}
	}
	mape /= float64((tr.Slots() - 1) * tr.Types())
	if mape <= 0 || mape > 0.5 {
		t.Fatalf("MAPE %g outside plausible band", mape)
	}
}

func TestPredictTraceErrors(t *testing.T) {
	short := workload.Constant("x", []float64{1}, 1)
	if _, err := PredictTrace(short, 1, 1); err != ErrShortTrace {
		t.Fatalf("got %v, want ErrShortTrace", err)
	}
	bad := &workload.Trace{Name: "bad"}
	if _, err := PredictTrace(bad, 1, 1); err == nil {
		t.Fatal("invalid trace accepted")
	}
	ok := workload.Constant("x", []float64{1}, 3)
	if _, err := PredictTrace(ok, 0, 1); err == nil {
		t.Fatal("invalid variances accepted")
	}
}

// Property: the estimate stays within the observed range for any
// non-negative input sequence (a convex-combination filter cannot
// extrapolate beyond its data).
func TestKalmanBoundedQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k, err := NewKalman(0.5+rng.Float64(), 0.5+rng.Float64())
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 50; i++ {
			z := rng.Float64() * 1000
			lo = math.Min(lo, z)
			hi = math.Max(hi, z)
			est := k.Observe(z)
			// Initial estimate starts at 0; allow the first few steps to
			// climb from below.
			if i > 5 && (est < lo-1e-6 || est > hi+1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
