package queue

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMM1Delay(t *testing.T) {
	q := MM1{Phi: 0.5, C: 1, Mu: 10} // service rate 5
	d, err := q.Delay(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-12 { // 1/(5-3)
		t.Fatalf("Delay = %g, want 0.5", d)
	}
}

func TestMM1DelayUnstable(t *testing.T) {
	q := MM1{Phi: 1, C: 1, Mu: 4}
	for _, lambda := range []float64{4, 5} {
		d, err := q.Delay(lambda)
		if !errors.Is(err, ErrUnstable) || !math.IsInf(d, 1) {
			t.Fatalf("lambda=%g: want unstable, got d=%g err=%v", lambda, d, err)
		}
	}
}

func TestMM1DelayNegativeRate(t *testing.T) {
	q := MM1{Phi: 1, C: 1, Mu: 4}
	if _, err := q.Delay(-1); err == nil {
		t.Fatal("want error on negative rate")
	}
}

// Property: delay is increasing in lambda and decreasing in phi.
func TestDelayMonotoneQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mu := 10 + rng.Float64()*100
		phi := 0.2 + rng.Float64()*0.8
		q := MM1{Phi: phi, C: 1, Mu: mu}
		max := q.ServiceRate() * 0.95
		l1 := rng.Float64() * max * 0.5
		l2 := l1 + rng.Float64()*(max-l1)
		d1, err1 := q.Delay(l1)
		d2, err2 := q.Delay(l2)
		if err1 != nil || err2 != nil {
			return false
		}
		if d2 < d1-1e-12 {
			return false
		}
		q2 := MM1{Phi: math.Min(1, phi*1.1), C: 1, Mu: mu}
		d3, err := q2.Delay(l1)
		return err == nil && d3 <= d1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMMCErlangC(t *testing.T) {
	// Single server M/M/1: wait probability equals utilization.
	q := MMC{Servers: 1, Mu: 10}
	pw, err := q.ErlangC(5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pw-0.5) > 1e-9 {
		t.Fatalf("ErlangC(M/M/1, rho=0.5) = %g, want 0.5", pw)
	}
}

func TestMMCDelayMatchesMM1(t *testing.T) {
	// With one server, M/M/c delay must equal the M/M/1 closed form.
	mmc := MMC{Servers: 1, Mu: 10}
	mm1 := MM1{Phi: 1, C: 1, Mu: 10}
	for _, l := range []float64{1, 4, 8, 9.5} {
		d1, err1 := mmc.Delay(l)
		d2, err2 := mm1.Delay(l)
		if err1 != nil || err2 != nil {
			t.Fatalf("lambda=%g: errs %v %v", l, err1, err2)
		}
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("lambda=%g: M/M/c %g vs M/M/1 %g", l, d1, d2)
		}
	}
}

func TestMMCPoolingBeatsSplitting(t *testing.T) {
	// Classic result: one pooled M/M/2 beats two split M/M/1s.
	pooled := MMC{Servers: 2, Mu: 10}
	split := MM1{Phi: 1, C: 1, Mu: 10}
	dPool, err := pooled.Delay(12)
	if err != nil {
		t.Fatal(err)
	}
	dSplit, err := split.Delay(6)
	if err != nil {
		t.Fatal(err)
	}
	if dPool >= dSplit {
		t.Fatalf("pooled %g should beat split %g", dPool, dSplit)
	}
}

func TestMMCErrors(t *testing.T) {
	if _, err := (MMC{Servers: 0, Mu: 10}).ErlangC(1); err == nil {
		t.Fatal("want error for zero servers")
	}
	if _, err := (MMC{Servers: 2, Mu: 10}).ErlangC(-1); err == nil {
		t.Fatal("want error for negative rate")
	}
	if _, err := (MMC{Servers: 2, Mu: 10}).Delay(25); !errors.Is(err, ErrUnstable) {
		t.Fatal("want unstable")
	}
	if (MMC{Servers: 2, Mu: 10}).Stable(25) {
		t.Fatal("should be unstable")
	}
	if !(MMC{Servers: 2, Mu: 10}).Stable(15) {
		t.Fatal("should be stable")
	}
}

func TestMM1Stable(t *testing.T) {
	q := MM1{Phi: 1, C: 1, Mu: 10}
	if !q.Stable(9.9) || q.Stable(10) || q.Stable(-1) {
		t.Fatal("Stable boundary wrong")
	}
}

func TestMG1ReducesToMM1(t *testing.T) {
	// CV = 1 (exponential) must reproduce the M/M/1 closed form.
	g := MG1{Phi: 0.5, C: 1, Mu: 100, CV: 1}
	m := MM1{Phi: 0.5, C: 1, Mu: 100}
	for _, lam := range []float64{0, 10, 30, 45} {
		dg, err1 := g.Delay(lam)
		dm, err2 := m.Delay(lam)
		if err1 != nil || err2 != nil {
			t.Fatalf("lambda %g: %v %v", lam, err1, err2)
		}
		if math.Abs(dg-dm) > 1e-12 {
			t.Fatalf("lambda %g: M/G/1 %g vs M/M/1 %g", lam, dg, dm)
		}
	}
}

func TestMG1Deterministic(t *testing.T) {
	// CV = 0 (M/D/1): the queueing term is exactly half of M/M/1's.
	g := MG1{Phi: 1, C: 1, Mu: 10, CV: 0}
	lam := 5.0
	d, err := g.Delay(lam)
	if err != nil {
		t.Fatal(err)
	}
	// 1/mu + rho/(2 mu (1-rho)) = 0.1 + 0.5/(2*10*0.5) = 0.15.
	if math.Abs(d-0.15) > 1e-12 {
		t.Fatalf("M/D/1 delay %g, want 0.15", d)
	}
}

func TestMG1BurstyWorse(t *testing.T) {
	steady := MG1{Phi: 1, C: 1, Mu: 10, CV: 0}
	bursty := MG1{Phi: 1, C: 1, Mu: 10, CV: 2}
	ds, _ := steady.Delay(6)
	db, _ := bursty.Delay(6)
	if db <= ds {
		t.Fatalf("bursty %g not worse than deterministic %g", db, ds)
	}
	infl, err := bursty.DelayInflation(6)
	if err != nil {
		t.Fatal(err)
	}
	if infl <= 1 {
		t.Fatalf("CV=2 inflation %g, want > 1", infl)
	}
	defl, err := steady.DelayInflation(6)
	if err != nil {
		t.Fatal(err)
	}
	if defl >= 1 {
		t.Fatalf("CV=0 inflation %g, want < 1", defl)
	}
}

func TestMG1Errors(t *testing.T) {
	g := MG1{Phi: 1, C: 1, Mu: 10, CV: 1}
	if _, err := g.Delay(-1); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := g.Delay(10); !errors.Is(err, ErrUnstable) {
		t.Fatal("want unstable")
	}
	if _, err := (MG1{Phi: 1, C: 1, Mu: 10, CV: -1}).Delay(1); err == nil {
		t.Fatal("negative CV accepted")
	}
	if g.Stable(10) || !g.Stable(9) {
		t.Fatal("Stable boundary wrong")
	}
}
