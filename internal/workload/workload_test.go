package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	tr := Constant("fe1", []float64{11, 14, 17}, 5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Slots() != 5 || tr.Types() != 3 {
		t.Fatalf("shape %dx%d", tr.Slots(), tr.Types())
	}
	for s := 0; s < 5; s++ {
		if tr.At(s, 1) != 14 {
			t.Fatalf("slot %d type 1 = %g", s, tr.At(s, 1))
		}
	}
	if tr.Total(0) != 42 {
		t.Fatalf("Total = %g", tr.Total(0))
	}
}

func TestConstantRowsIndependent(t *testing.T) {
	tr := Constant("fe", []float64{1}, 3)
	tr.Rates[0][0] = 99
	if tr.Rates[1][0] != 1 {
		t.Fatal("rows alias each other")
	}
}

func TestAtWraps(t *testing.T) {
	tr := Constant("fe", []float64{1, 2}, 3)
	tr.Rates[0][0] = 7
	if tr.At(3, 0) != 7 {
		t.Fatal("At must wrap")
	}
	if tr.At(-3, 0) != 7 {
		t.Fatal("At must wrap negatives")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []*Trace{
		{Name: "empty"},
		{Name: "ragged", Rates: [][]float64{{1, 2}, {1}}},
		{Name: "neg", Rates: [][]float64{{-1}}},
		{Name: "nan", Rates: [][]float64{{math.NaN()}}},
	}
	for _, tr := range bad {
		if tr.Validate() == nil {
			t.Errorf("%s: expected error", tr.Name)
		}
	}
}

func TestScale(t *testing.T) {
	tr := Constant("fe", []float64{2, 4}, 2).Scale(0.5)
	if tr.At(0, 0) != 1 || tr.At(1, 1) != 2 {
		t.Fatal("Scale wrong")
	}
}

func TestShiftTypes(t *testing.T) {
	base := []float64{10, 20, 30, 40}
	tr := ShiftTypes("fe", base, 3, 1)
	if tr.Types() != 3 || tr.Slots() != 4 {
		t.Fatalf("shape %dx%d", tr.Slots(), tr.Types())
	}
	// Type k at slot s equals base[(s+k) mod n].
	if tr.At(0, 0) != 10 || tr.At(0, 1) != 20 || tr.At(0, 2) != 30 {
		t.Fatalf("row 0 = %v", tr.Rates[0])
	}
	if tr.At(3, 1) != 10 { // (3+1) mod 4 = 0
		t.Fatalf("wrap shift failed: %g", tr.At(3, 1))
	}
}

func TestShiftTypesPreservesMass(t *testing.T) {
	base := WorldCupLike(WorldCupConfig{Seed: 3})
	tr := ShiftTypes("fe", base, 3, 5)
	var baseSum float64
	for _, v := range base {
		baseSum += v
	}
	for k := 0; k < 3; k++ {
		var s float64
		for slot := 0; slot < tr.Slots(); slot++ {
			s += tr.At(slot, k)
		}
		if math.Abs(s-baseSum) > 1e-6 {
			t.Fatalf("type %d mass %g != base %g", k, s, baseSum)
		}
	}
}

func TestWorldCupLikeShape(t *testing.T) {
	base := WorldCupLike(WorldCupConfig{Seed: 1})
	if len(base) != 24 {
		t.Fatalf("len = %d", len(base))
	}
	// Diurnal: afternoon (12-20) must exceed night (0-6) on average.
	avg := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += base[i]
		}
		return s / float64(hi-lo)
	}
	if avg(12, 20) <= avg(0, 6) {
		t.Fatal("no diurnal swing")
	}
	// Flash crowd near slot 19 must exceed the plain diurnal level.
	if base[19] < avg(12, 18) {
		t.Fatal("no flash crowd")
	}
	for _, v := range base {
		if v < 0 {
			t.Fatal("negative rate")
		}
	}
}

func TestWorldCupLikeDeterministic(t *testing.T) {
	a := WorldCupLike(WorldCupConfig{Seed: 9})
	b := WorldCupLike(WorldCupConfig{Seed: 9})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
	}
}

func TestGoogleLikeShape(t *testing.T) {
	g := GoogleLike(GoogleConfig{Seed: 2})
	if len(g) != 7 {
		t.Fatalf("len = %d, want 7 (the trace spans ~7 hours)", len(g))
	}
	var mean float64
	for _, v := range g {
		if v <= 0 {
			t.Fatal("non-positive rate")
		}
		mean += v
	}
	mean /= float64(len(g))
	if mean < 400 || mean > 1600 {
		t.Fatalf("mean %g wildly off the configured 800", mean)
	}
}

func TestGoogleLikeBursty(t *testing.T) {
	g := GoogleLike(GoogleConfig{Slots: 200, Seed: 4})
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range g {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if max/min < 1.5 {
		t.Fatalf("series too flat: min %g max %g", min, max)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := ShiftTypes("fe", WorldCupLike(WorldCupConfig{Seed: 7}), 3, 2)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("fe", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Slots() != tr.Slots() || back.Types() != tr.Types() {
		t.Fatal("shape changed in round trip")
	}
	for s := 0; s < tr.Slots(); s++ {
		for k := 0; k < tr.Types(); k++ {
			if back.At(s, k) != tr.At(s, k) {
				t.Fatalf("slot %d type %d: %g != %g", s, k, back.At(s, k), tr.At(s, k))
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Fatal("empty csv should fail")
	}
	if _, err := ReadCSV("x", strings.NewReader("slot,type0\n0,notanumber\n")); err == nil {
		t.Fatal("bad number should fail")
	}
	if _, err := ReadCSV("x", strings.NewReader("slot,type0\n0,-5\n")); err == nil {
		t.Fatal("negative rate should fail validation")
	}
}

// Property: generators always produce valid traces.
func TestGeneratorsValidQuick(t *testing.T) {
	f := func(seed int64, types uint8, shift int8) bool {
		k := int(types%5) + 1
		base := WorldCupLike(WorldCupConfig{Seed: seed})
		tr := ShiftTypes("fe", base, k, int(shift))
		return tr.Validate() == nil && tr.Types() == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMMPPMeanRate(t *testing.T) {
	p := MMPP{RateLow: 10, RateHigh: 100, MeanLow: 3, MeanHigh: 1}
	// (10*3 + 100*1)/4 = 32.5.
	if math.Abs(p.MeanRate()-32.5) > 1e-12 {
		t.Fatalf("MeanRate = %g", p.MeanRate())
	}
}

func TestMMPPArrivalsStatistics(t *testing.T) {
	p := MMPP{RateLow: 20, RateHigh: 200, MeanLow: 2, MeanHigh: 0.5}
	horizon := 2000.0
	arr, err := p.Arrivals(horizon, 7)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(len(arr)) / horizon
	if math.Abs(rate-p.MeanRate())/p.MeanRate() > 0.1 {
		t.Fatalf("realized rate %g vs mean %g", rate, p.MeanRate())
	}
	prev := -1.0
	for _, a := range arr {
		if a < prev || a < 0 || a >= horizon {
			t.Fatal("arrivals unsorted or out of range")
		}
		prev = a
	}
}

func TestMMPPBurstinessAbovePoisson(t *testing.T) {
	bursty := MMPP{RateLow: 5, RateHigh: 150, MeanLow: 4, MeanHigh: 1}
	idx, err := bursty.Burstiness(1, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 2 {
		t.Fatalf("burstiness index %g, want well above Poisson's 1", idx)
	}
	// Degenerate MMPP with equal rates IS Poisson: index ≈ 1.
	poisson := MMPP{RateLow: 50, RateHigh: 50, MeanLow: 1, MeanHigh: 1}
	idx2, err := poisson.Burstiness(1, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if idx2 < 0.7 || idx2 > 1.4 {
		t.Fatalf("degenerate MMPP index %g, want ≈1", idx2)
	}
}

func TestMMPPDeterministicInSeed(t *testing.T) {
	p := MMPP{RateLow: 10, RateHigh: 100, MeanLow: 1, MeanHigh: 1}
	a, _ := p.Arrivals(50, 9)
	b, _ := p.Arrivals(50, 9)
	if len(a) != len(b) {
		t.Fatal("same seed differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
	}
}

func TestMMPPErrors(t *testing.T) {
	if _, err := (MMPP{RateLow: -1, RateHigh: 1, MeanLow: 1, MeanHigh: 1}).Arrivals(10, 1); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := (MMPP{RateLow: 1, RateHigh: 1, MeanLow: 0, MeanHigh: 1}).Arrivals(10, 1); err == nil {
		t.Fatal("zero sojourn accepted")
	}
	if _, err := (MMPP{RateLow: 1, RateHigh: 1, MeanLow: 1, MeanHigh: 1}).Arrivals(0, 1); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := (MMPP{RateLow: 1, RateHigh: 1, MeanLow: 1, MeanHigh: 1}).Burstiness(0, 10, 1); err == nil {
		t.Fatal("zero window accepted")
	}
}
