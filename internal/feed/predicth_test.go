package feed

import (
	"math"
	"math/rand"
	"testing"
)

// TestPredictHOneStepUnchanged is the property gate for the multi-step
// extension: the first step of every PredictH trajectory must agree with
// the existing one-step Predict bit for bit, at every point of a filter's
// life (cold, after one observation, warmed on a noisy drift).
func TestPredictHOneStepUnchanged(t *testing.T) {
	k, err := NewKalman(4.0, 9.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	check := func(stage string) {
		t.Helper()
		wantE, wantV := k.Predict()
		for _, h := range []int{1, 2, 5, 24} {
			est, vars, err := k.PredictH(h)
			if err != nil {
				t.Fatalf("%s: PredictH(%d): %v", stage, h, err)
			}
			if len(est) != h || len(vars) != h {
				t.Fatalf("%s: PredictH(%d) returned %d/%d entries", stage, h, len(est), len(vars))
			}
			if est[0] != wantE || vars[0] != wantV {
				t.Fatalf("%s: PredictH(%d) step 1 = (%g, %g), Predict = (%g, %g)",
					stage, h, est[0], vars[0], wantE, wantV)
			}
		}
	}
	check("cold")
	k.Observe(100)
	check("one observation")
	for i := 0; i < 50; i++ {
		k.Observe(100 + 0.5*float64(i) + 3*rng.NormFloat64())
	}
	check("warm")
}

// TestPredictHVarianceMonotone checks the widening-uncertainty property:
// under the random-walk model the h-step variance is p + h·Q, so it must
// be strictly increasing in h (Q > 0 by construction) while the mean
// stays flat.
func TestPredictHVarianceMonotone(t *testing.T) {
	k, err := NewKalman(2.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		k.Observe(40 + float64(i%3))
	}
	const H = 48
	est, vars, err := k.PredictH(H)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < H; i++ {
		if !(vars[i] > vars[i-1]) {
			t.Fatalf("variance not strictly increasing: vars[%d]=%g vars[%d]=%g", i-1, vars[i-1], i, vars[i])
		}
		if est[i] != est[0] {
			t.Fatalf("random-walk mean not flat: est[%d]=%g est[0]=%g", i, est[i], est[0])
		}
		if got, want := vars[i]-vars[i-1], k.ProcessVar; math.Abs(got-want) > 1e-12*want {
			t.Fatalf("variance step %d widened by %g, want Q=%g", i, got, want)
		}
	}
}

// TestPredictHRejectsBadHorizon pins the contract on degenerate horizons.
func TestPredictHRejectsBadHorizon(t *testing.T) {
	k, err := NewKalman(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{0, -1} {
		if _, _, err := k.PredictH(h); err == nil {
			t.Fatalf("PredictH(%d) accepted", h)
		}
	}
}
