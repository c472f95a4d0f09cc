package queue

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/stats"
	"profitlb/internal/tuf"
)

// run summarizes n Poisson arrivals through q, the way the experiments
// read a realized queue.
func run(q Sim, n int) (stats.Summary, error) {
	delays, err := q.RunDelays(n)
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(delays)
}

func TestRunMatchesAnalyticalDelay(t *testing.T) {
	// Across utilizations, the realized mean delay must converge to
	// Eq. 1's 1/(μ−λ) within a few percent at 200k arrivals.
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.9} {
		q := Sim{Lambda: rho * 100, Mu: 100, Seed: 42}
		st, err := run(q, 200000)
		if err != nil {
			t.Fatal(err)
		}
		want := q.ExpectedDelay()
		rel := math.Abs(st.Mean-want) / want
		if rel > 0.08 {
			t.Fatalf("rho=%g: simulated %g vs analytical %g (rel %g)", rho, st.Mean, want, rel)
		}
	}
}

func TestRunStatsShape(t *testing.T) {
	q := Sim{Lambda: 50, Mu: 100, Seed: 7}
	st, err := run(q, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 50000 {
		t.Fatalf("arrivals %d", st.N)
	}
	if !(st.Mean < st.P95 && st.P95 <= st.Max) {
		t.Fatalf("ordering: mean %g p95 %g max %g", st.Mean, st.P95, st.Max)
	}
	// Little's law: L = λW; rho=0.5 → L = 1.
	if l := q.Lambda * st.Mean; math.Abs(l-1) > 0.15 {
		t.Fatalf("mean queue %g, want ≈1", l)
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	a, err := run(Sim{Lambda: 30, Mu: 100, Seed: 5}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(Sim{Lambda: 30, Mu: 100, Seed: 5}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same seed, different stats")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := (Sim{Lambda: 100, Mu: 100, Seed: 1}).RunDelays(10); !errors.Is(err, ErrUnstable) {
		t.Fatal("want unstable")
	}
	if _, err := (Sim{Lambda: 10, Mu: 100}).RunDelays(0); !errors.Is(err, ErrNoWork) {
		t.Fatal("want no-work error")
	}
	if _, err := (Sim{Lambda: -1, Mu: 100}).RunDelays(10); err == nil {
		t.Fatal("want rate error")
	}
}

// Property: the simulated mean delay is never below the pure service time
// 1/μ and grows with utilization.
func TestDelayBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		mu := 100.0
		q1 := Sim{Lambda: 30, Mu: mu, Seed: seed}
		q2 := Sim{Lambda: 80, Mu: mu, Seed: seed}
		s1, err1 := run(q1, 20000)
		s2, err2 := run(q2, 20000)
		if err1 != nil || err2 != nil {
			return false
		}
		return s1.Mean >= 1/mu && s2.Mean > s1.Mean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func planForValidation(t *testing.T) (*datacenter.System, *core.Plan) {
	t.Helper()
	sys := &datacenter.System{
		Classes: []datacenter.RequestClass{
			{Name: "a", TUF: tuf.MustNew([]tuf.Level{{Utility: 10, Deadline: 0.05}}), TransferCostPerMile: 0.0001},
			{Name: "b", TUF: tuf.MustNew([]tuf.Level{{Utility: 20, Deadline: 0.02}, {Utility: 8, Deadline: 0.2}}), TransferCostPerMile: 0.0002},
		},
		FrontEnds: []datacenter.FrontEnd{{Name: "fe", DistanceMiles: []float64{200, 700}}},
		Centers: []datacenter.DataCenter{
			{Name: "dc1", Servers: 4, Capacity: 1, ServiceRate: []float64{400, 300}, EnergyPerRequest: []float64{0.3, 0.5}},
			{Name: "dc2", Servers: 4, Capacity: 1, ServiceRate: []float64{350, 320}, EnergyPerRequest: []float64{0.25, 0.45}},
		},
	}
	in := &core.Input{Sys: sys, Arrivals: [][]float64{{600, 500}}, Prices: []float64{0.2, 0.15}}
	plan, err := core.NewOptimized().Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(in, plan, 1e-6); err != nil {
		t.Fatal(err)
	}
	return sys, plan
}

func TestValidatePlan(t *testing.T) {
	sys, plan := planForValidation(t)
	checks, err := ValidatePlan(sys, plan, 200000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) == 0 {
		t.Fatal("no loaded commodities to validate")
	}
	if worst := WorstRelErr(checks); worst > 0.10 {
		t.Fatalf("worst model error %g exceeds 10%%", worst)
	}
	for _, c := range checks {
		// The plan meets deadlines with equality in expectation, so the
		// analytical delay must sit at or below the level deadline.
		if c.Expected > c.Deadline*(1+1e-6) {
			t.Fatalf("commodity %+v: analytical delay above deadline", c)
		}
	}
}

func TestValidatePlanErrors(t *testing.T) {
	sys, plan := planForValidation(t)
	if _, err := ValidatePlan(sys, plan, 0, 1); !errors.Is(err, ErrNoWork) {
		t.Fatal("want no-work error")
	}
	// Corrupt the plan: load with no servers on.
	plan.ServersOn[0] = 0
	plan.ServersOn[1] = 0
	if _, err := ValidatePlan(sys, plan, 100, 1); err == nil {
		t.Fatal("want error for load without servers")
	}
}

func TestWorstRelErrEmpty(t *testing.T) {
	if WorstRelErr(nil) != 0 {
		t.Fatal("empty set should be 0")
	}
}

func TestRunDelaysLength(t *testing.T) {
	d, err := Sim{Lambda: 10, Mu: 100, Seed: 3}.RunDelays(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 500 {
		t.Fatalf("len = %d", len(d))
	}
	for _, v := range d {
		if v <= 0 {
			t.Fatal("non-positive delay")
		}
	}
}

func TestUtilityGapDirections(t *testing.T) {
	sys, plan := planForValidation(t)
	checks, err := UtilityGap(sys, plan, 150000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) == 0 {
		t.Fatal("no checks")
	}
	for _, c := range checks {
		cls := sys.Classes[c.Class].TUF
		// Per-request utility is bounded by the TUF's extremes.
		if c.PerRequestUtility < 0 || c.PerRequestUtility > cls.MaxUtility() {
			t.Fatalf("per-request utility %g out of range", c.PerRequestUtility)
		}
		// A top-level commodity can only lose utility per request; a
		// bottom-level one can only gain.
		if c.Level == 0 && c.PerRequestUtility > c.MeanDelayUtility+1e-9 {
			t.Fatalf("top level gained utility: %+v", c)
		}
		if c.Level == cls.NumLevels()-1 && cls.NumLevels() > 1 &&
			c.PerRequestUtility < c.MeanDelayUtility-1e-9 {
			t.Fatalf("bottom level lost utility: %+v", c)
		}
	}
	mean, per := RevenueRates(checks)
	if mean <= 0 || per <= 0 {
		t.Fatalf("revenue rates %g %g", mean, per)
	}
}

func TestUtilityGapErrors(t *testing.T) {
	sys, plan := planForValidation(t)
	if _, err := UtilityGap(sys, plan, 0, 1); !errors.Is(err, ErrNoWork) {
		t.Fatal("want no-work error")
	}
	plan.ServersOn[0], plan.ServersOn[1] = 0, 0
	if _, err := UtilityGap(sys, plan, 100, 1); err == nil {
		t.Fatal("want error for load without servers")
	}
}

func TestRunArrivalsMatchesRunForPoisson(t *testing.T) {
	// Feeding Poisson arrivals through RunArrivals must reproduce M/M/1
	// behaviour: mean delay ≈ 1/(mu − lambda).
	rng := rand.New(rand.NewSource(21))
	lam, mu := 60.0, 100.0
	n := 150000
	arrivals := make([]float64, n)
	t0 := 0.0
	for i := range arrivals {
		t0 += rng.ExpFloat64() / lam
		arrivals[i] = t0
	}
	delays, err := Sim{Mu: mu, Seed: 5}.RunArrivals(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.Summarize(delays)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (mu - lam)
	if math.Abs(st.Mean-want)/want > 0.08 {
		t.Fatalf("mean delay %g, want ≈%g", st.Mean, want)
	}
}

func TestRunArrivalsErrors(t *testing.T) {
	if _, err := (Sim{Mu: 10}).RunArrivals(nil); !errors.Is(err, ErrNoWork) {
		t.Fatal("want no-work")
	}
	if _, err := (Sim{Mu: 0}).RunArrivals([]float64{1}); err == nil {
		t.Fatal("zero mu accepted")
	}
	if _, err := (Sim{Mu: 10}).RunArrivals([]float64{2, 1}); err == nil {
		t.Fatal("unsorted arrivals accepted")
	}
}
