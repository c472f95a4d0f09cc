package feed

import (
	"math"
	"testing"

	"profitlb/internal/fault"
)

// TestForecastHorizonShapeAndFilterPath checks the healthy path: after a
// few fresh fetches every filter is warm, so the projection is the flat
// random-walk mean at every step, shaped [h][L] / [h][S][K].
func TestForecastHorizonShapeAndFilterPath(t *testing.T) {
	st := testSet(t, Config{}, nil)
	for slot := 0; slot < 6; slot++ {
		st.FetchSlot(slot)
	}
	const H = 4
	prices, arrivals := st.ForecastHorizon(H)
	if len(prices) != H || len(arrivals) != H {
		t.Fatalf("horizon shape: %d/%d steps, want %d", len(prices), len(arrivals), H)
	}
	for i := 0; i < H; i++ {
		if len(prices[i]) != 2 || len(arrivals[i]) != 1 || len(arrivals[i][0]) != 2 {
			t.Fatalf("step %d: bad widths %d/%d", i, len(prices[i]), len(arrivals[i]))
		}
		// Random-walk projection: flat across steps, equal to step 1.
		for l := range prices[i] {
			if prices[i][l] != prices[0][l] {
				t.Fatalf("price %d not flat: step %d %g vs step 1 %g", l, i+1, prices[i][l], prices[0][l])
			}
			if prices[i][l] <= 0 {
				t.Fatalf("price %d step %d not positive: %g", l, i+1, prices[i][l])
			}
		}
	}
	// The warmed filter tracks the source scale (oscillating around 0.08).
	if prices[0][0] < 0.04 || prices[0][0] > 0.14 {
		t.Fatalf("price-0 projection %g far from source scale", prices[0][0])
	}
}

// TestPredictAheadFallsBackToLKGThenPrior drives the ladder: a feed dead
// from birth projects its prior; one that died after a single good sample
// (its filter still cold) holds that sample flat at every step.
func TestPredictAheadFallsBackToLKGThenPrior(t *testing.T) {
	schDark := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedLoss, Feed: fault.FeedPrice, Center: 0, From: 0, To: 99},
	}}
	st := testSet(t, Config{}, schDark)
	for slot := 0; slot < 3; slot++ {
		st.FetchSlot(slot)
	}
	prices, _ := st.ForecastHorizon(3)
	for i := range prices {
		if prices[i][0] != 0.08 { // the prior
			t.Fatalf("dark feed step %d projects %g, want prior 0.08", i+1, prices[i][0])
		}
	}

	// Cold filter + live LKG: lost from slot 1, the feed has one good
	// sample, short of the two that warm the filter.
	schDie := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedLoss, Feed: fault.FeedPrice, Center: 1, From: 1, To: 99},
	}}
	st2 := testSet(t, Config{}, schDie)
	for slot := 0; slot < 3; slot++ {
		st2.FetchSlot(slot)
	}
	prices2, _ := st2.ForecastHorizon(3)
	lkg := 0.11 + 0.03*math.Cos(0) // the slot-0 sample
	for i := range prices2 {
		if math.Abs(prices2[i][1]-lkg) > 1e-12 {
			t.Fatalf("LKG step %d projects %g, want the held sample %g", i+1, prices2[i][1], lkg)
		}
	}
}

// TestPredictAheadDoesNotMutate pins the read-only contract: projecting
// must not change what the next Fetch or projection sees.
func TestPredictAheadDoesNotMutate(t *testing.T) {
	st := testSet(t, Config{}, nil)
	for slot := 0; slot < 4; slot++ {
		st.FetchSlot(slot)
	}
	p1, a1 := st.ForecastHorizon(5)
	p2, a2 := st.ForecastHorizon(5)
	for i := range p1 {
		for l := range p1[i] {
			if p1[i][l] != p2[i][l] {
				t.Fatalf("repeated projection differs at step %d center %d", i+1, l)
			}
		}
		for s := range a1[i] {
			for k := range a1[i][s] {
				if a1[i][s][k] != a2[i][s][k] {
					t.Fatalf("repeated projection differs at step %d fe %d type %d", i+1, s, k)
				}
			}
		}
	}
	// And the slot fetch after projections is byte-identical to a fresh set
	// driven without them.
	ref := testSet(t, Config{}, nil)
	for slot := 0; slot < 4; slot++ {
		ref.FetchSlot(slot)
	}
	a := st.FetchSlot(4)
	b := ref.FetchSlot(4)
	for l := range a.Prices {
		if a.Prices[l] != b.Prices[l] {
			t.Fatalf("projection perturbed fetch: price %d %g vs %g", l, a.Prices[l], b.Prices[l])
		}
	}
}
