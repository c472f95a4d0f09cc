package feed

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"profitlb/internal/fault"
)

// testSet builds a 2-center / 1-front-end / 2-type feed layer over
// synthetic oscillating sources.
func testSet(t *testing.T, cfg Config, sch *fault.Schedule) *Set {
	t.Helper()
	priceSrc := []func(int) float64{
		func(slot int) float64 { return 0.08 + 0.02*math.Sin(float64(slot)) },
		func(slot int) float64 { return 0.11 + 0.03*math.Cos(float64(slot)) },
	}
	arrivalSrc := []func(int, []float64){
		func(slot int, out []float64) {
			out[0], out[1] = 4000+500*math.Sin(float64(slot)/2), 1500+300*math.Cos(float64(slot)/3)
		},
	}
	st, err := NewSet(cfg, sch, priceSrc, []float64{0.08, 0.11}, arrivalSrc, [][]float64{{4000, 1500}})
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return st
}

func TestCleanFeedsAreFreshAndExact(t *testing.T) {
	st := testSet(t, Config{}, nil)
	for slot := 0; slot < 10; slot++ {
		s := st.FetchSlot(slot)
		if !s.Health.AllFresh() || s.Distorted {
			t.Fatalf("slot %d: clean feeds not fresh: %+v", slot, s.Health)
		}
		wantP0 := 0.08 + 0.02*math.Sin(float64(slot))
		if s.Prices[0] != wantP0 {
			t.Fatalf("slot %d: price 0 = %g, want bit-identical %g", slot, s.Prices[0], wantP0)
		}
		for _, h := range append(append([]Health(nil), s.Health.Prices...), s.Health.Arrivals...) {
			if h.Tier != TierFresh || h.Staleness != 0 || h.Attempts != 1 || h.Breaker != Closed {
				t.Fatalf("slot %d: unexpected clean health %+v", slot, h)
			}
		}
	}
}

func TestEstimatorChainTiers(t *testing.T) {
	// The price-0 feed dies permanently at slot 3; TTL 3 carries the LKG
	// through slots 3-5, then the Kalman (warm after 3 good samples) takes
	// over.
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedLoss, Feed: fault.FeedPrice, Center: 0, From: 3, To: 99},
	}}
	st := testSet(t, Config{}, sch)
	wantTiers := map[int]Tier{0: TierFresh, 2: TierFresh, 3: TierLKG, 5: TierLKG, 6: TierForecast, 9: TierForecast}
	for slot := 0; slot < 10; slot++ {
		s := st.FetchSlot(slot)
		if want, ok := wantTiers[slot]; ok && s.Health.Prices[0].Tier != want {
			t.Fatalf("slot %d: price-0 tier %s, want %s", slot, s.Health.Prices[0].Tier, want)
		}
		if slot >= 3 {
			if got, want := s.Health.Prices[0].Staleness, slot-2; got != want {
				t.Fatalf("slot %d: staleness %d, want %d", slot, got, want)
			}
		}
		// The untouched feeds stay fresh.
		if s.Health.Prices[1].Tier != TierFresh || s.Health.Arrivals[0].Tier != TierFresh {
			t.Fatalf("slot %d: unfaulted feeds degraded: %+v", slot, s.Health)
		}
	}
}

func TestPriorTierWhenFeedNeverDelivers(t *testing.T) {
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedLoss, Feed: fault.FeedArrival, FrontEnd: 0, From: 0, To: 99},
	}}
	st := testSet(t, Config{}, sch)
	for slot := 0; slot < 8; slot++ {
		s := st.FetchSlot(slot)
		h := s.Health.Arrivals[0]
		if h.Tier != TierPrior {
			t.Fatalf("slot %d: tier %s, want prior", slot, h.Tier)
		}
		if h.Staleness != slot+1 {
			t.Fatalf("slot %d: staleness %d, want %d (born-slot bookkeeping)", slot, h.Staleness, slot+1)
		}
		if !s.Health.Unusable() {
			t.Fatalf("slot %d: a prior-tier feed must make the slot unusable", slot)
		}
		// Prior is inflated by the capped staleness margin.
		m := 0.05 * float64(h.Staleness)
		if m > 0.5 {
			m = 0.5
		}
		want := 4000 * (1 + m)
		if math.Abs(s.Arrivals[0][0]-want) > 1e-9 {
			t.Fatalf("slot %d: arrival %g, want prior with margin %g", slot, s.Arrivals[0][0], want)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := breaker{}
	if !b.Allow(0) {
		t.Fatal("closed breaker must allow")
	}
	b.Record(0, false)
	if b.state != Closed {
		t.Fatalf("one failure must not open (got %s)", b.state)
	}
	b.Record(1, false)
	if b.state != Open {
		t.Fatalf("threshold failures must open (got %s)", b.state)
	}
	if b.Allow(2) {
		t.Fatal("open breaker inside cooldown must block")
	}
	if !b.Allow(3) || b.state != HalfOpen {
		t.Fatalf("cooldown elapsed must half-open (got %s)", b.state)
	}
	b.Record(3, false)
	if b.state != Open || b.openedAt != 3 {
		t.Fatalf("failed trial must re-open at the trial slot (got %s@%d)", b.state, b.openedAt)
	}
	if !b.Allow(5) || b.state != HalfOpen {
		t.Fatalf("second cooldown must half-open again (got %s)", b.state)
	}
	b.Record(5, true)
	if b.state != Closed || b.fails != 0 {
		t.Fatalf("successful trial must close and reset (got %s, fails %d)", b.state, b.fails)
	}
	// A success after a single failure resets the consecutive count.
	b.Record(6, false)
	b.Record(7, true)
	b.Record(8, false)
	if b.state != Closed {
		t.Fatalf("non-consecutive failures must not open (got %s)", b.state)
	}
}

func TestBreakerOpensAndRecoversThroughFeed(t *testing.T) {
	// Dropout with probability 1 over slots 0-3: failed slots 0-1 reach
	// the breaker threshold, slot 2 sits out the cooldown, the slot-3
	// half-open trial still hits the dropout and re-opens, slot 4 cools
	// down again, and the slot-5 trial hits a healthy feed and closes.
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedDropout, Feed: fault.FeedPrice, Center: 0, Factor: 1, From: 0, To: 3},
	}}
	st := testSet(t, Config{}, sch)
	states := make([]BreakerState, 6)
	attempts := make([]int, 6)
	for slot := 0; slot < 6; slot++ {
		s := st.FetchSlot(slot)
		states[slot] = s.Health.Prices[0].Breaker
		attempts[slot] = s.Health.Prices[0].Attempts
	}
	want := []BreakerState{Closed, Open, Open, Open, Open, Closed}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("breaker states %v, want %v", states, want)
	}
	if attempts[2] != 0 || attempts[4] != 0 {
		t.Fatalf("open breaker must skip the transport (attempts %v)", attempts)
	}
	if attempts[3] == 0 {
		t.Fatalf("slot-3 half-open trial must actually fetch (attempts %v)", attempts)
	}
	if attempts[5] != 1 {
		t.Fatalf("healthy half-open trial should succeed on attempt 1, got %d", attempts[5])
	}
}

func TestDeadlineFailsUnderExtremeDelay(t *testing.T) {
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedDelay, Feed: fault.FeedArrival, FrontEnd: 0, Factor: 1000, From: 0, To: 0},
	}}
	st := testSet(t, Config{}, sch)
	s := st.FetchSlot(0)
	h := s.Health.Arrivals[0]
	if h.Failure != "deadline" || h.Tier == TierFresh {
		t.Fatalf("1000x delay must blow the deadline, got %+v", h)
	}
}

// cloneSample deep-copies a Sample, which its Set refills every slot.
func cloneSample(s *Sample) *Sample {
	out := *s
	out.Prices = append([]float64(nil), s.Prices...)
	out.Arrivals = make([][]float64, len(s.Arrivals))
	for i, row := range s.Arrivals {
		out.Arrivals[i] = append([]float64(nil), row...)
	}
	out.Health.Prices = append([]Health(nil), s.Health.Prices...)
	out.Health.Arrivals = append([]Health(nil), s.Health.Arrivals...)
	return &out
}

func TestFeedDeterminismAcrossRebuilds(t *testing.T) {
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedDropout, Feed: fault.FeedPrice, Center: 0, Factor: 0.5, From: 0, To: 19},
		{Kind: fault.FeedNoise, Feed: fault.FeedArrival, FrontEnd: 0, Factor: 0.3, From: 0, To: 19},
	}}
	run := func() ([]*Sample, *Set) {
		st := testSet(t, Config{Seed: 42}, sch)
		var out []*Sample
		for slot := 0; slot < 20; slot++ {
			out = append(out, cloneSample(st.FetchSlot(slot)))
		}
		return out, st
	}
	a, _ := run()
	b, _ := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("rebuilt Set must replay the identical degradation sequence")
	}
}

// TestEstimatesNeverNegative is the property test of the estimator
// chain: under random fault storms, every emitted arrival is >= 0, every
// price is > 0, and nothing is NaN or Inf — whatever mix of noise,
// dropouts, delays and losses is active.
func TestEstimatesNeverNegative(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		sch, err := fault.Storm(fault.StormConfig{
			Seed: int64(trial), Start: 0, Slots: 24, Centers: 2, FrontEnds: 1,
			FeedDropouts:   1 + rng.Intn(3),
			FeedNoises:     1 + rng.Intn(3),
			FeedDelays:     rng.Intn(2),
			FeedLosses:     rng.Intn(2),
			FeedNoiseSigma: 0.5 + rng.Float64(), // violent noise to probe the clamps
		})
		if err != nil {
			t.Fatalf("trial %d: storm: %v", trial, err)
		}
		st := testSet(t, Config{Seed: int64(trial)}, sch)
		for slot := 0; slot < 24; slot++ {
			s := st.FetchSlot(slot)
			for l, p := range s.Prices {
				if !(p > 0) || math.IsInf(p, 0) {
					t.Fatalf("trial %d slot %d: price %d = %g (tier %s)", trial, slot, l, p, s.Health.Prices[l].Tier)
				}
			}
			for fe, row := range s.Arrivals {
				for k, v := range row {
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("trial %d slot %d: arrival [%d][%d] = %g (tier %s)", trial, slot, fe, k, v, s.Health.Arrivals[fe].Tier)
					}
				}
			}
			for _, h := range append(append([]Health(nil), s.Health.Prices...), s.Health.Arrivals...) {
				if h.Staleness < 0 || h.Tier < TierFresh || h.Tier > TierPrior {
					t.Fatalf("trial %d slot %d: invalid health %+v", trial, slot, h)
				}
				if h.Tier == TierFresh && h.Failure != "" {
					t.Fatalf("trial %d slot %d: fresh tier with failure %q", trial, slot, h.Failure)
				}
			}
		}
	}
}

// TestConstantsAreTheOldDefaults pins every setting that used to be a
// feeds key to the value its default was.
func TestConstantsAreTheOldDefaults(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"maxAttempts", maxAttempts, 3},
		{"attemptLatencyMs", attemptLatencyMs, 20},
		{"baseBackoffMs", baseBackoffMs, 25},
		{"deadlineMs", deadlineMs, 250},
		{"breakerTrip (breakerThreshold)", breakerTrip, 2},
		{"breakerCooldown", breakerCooldown, 2},
		{"ttl", ttl, 3},
		{"minObservations", minObservations, 2},
		{"staleMargin", staleMargin, 0.05},
		{"maxMargin", maxMargin, 0.5},
		{"processRel", ProcessRel, 0.15},
		{"measureRel", MeasureRel, 0.05},
	} {
		if c.got != c.want {
			t.Errorf("%s = %g, the key's default was %g", c.name, c.got, c.want)
		}
	}
}

func TestTierAndStateStrings(t *testing.T) {
	if TierFresh.String() != "fresh" || TierLKG.String() != "lkg" ||
		TierForecast.String() != "forecast" || TierPrior.String() != "prior" {
		t.Fatal("tier strings drifted")
	}
	if Closed.String() != "closed" || Open.String() != "open" || HalfOpen.String() != "half-open" {
		t.Fatal("breaker state strings drifted")
	}
	h := Health{Tier: TierLKG, Staleness: 2, Breaker: Open}
	if h.Label() != "lkg(2)!" {
		t.Fatalf("label = %q", h.Label())
	}
}
