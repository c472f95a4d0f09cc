package feed

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"profitlb/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden faulted-feed vector")

// faultedSchedule impairs three of testSet's feeds so that every way a
// feed can draw from its per-slot stream occurs: price 0 draws in
// transport only (dropout), price 1 in observe only (noise), and the
// arrival feed in transport and then observe (both, two values wide).
func faultedSchedule() *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FeedDropout, Feed: fault.FeedPrice, Center: 0, Factor: 0.6, From: 2, To: 17},
		{Kind: fault.FeedNoise, Feed: fault.FeedPrice, Center: 1, Factor: 0.2, From: 0, To: 11},
		{Kind: fault.FeedDropout, Feed: fault.FeedArrival, FrontEnd: 0, Factor: 0.4, From: 4, To: 21},
		{Kind: fault.FeedNoise, Feed: fault.FeedArrival, FrontEnd: 0, Factor: 0.3, From: 6, To: 23},
	}}
}

// TestFaultedFeedsGolden pins readings (to the bit), attempts and health
// of a noisy, lossy schedule against the vector the eagerly seeded
// per-(feed, slot) generator produced: building the generator on the
// first draw must give the same stream in the same draw order.
func TestFaultedFeedsGolden(t *testing.T) {
	st := testSet(t, Config{Seed: 42}, faultedSchedule())
	var b strings.Builder
	line := func(slot int, name string, v []float64, h Health) {
		fmt.Fprintf(&b, "slot=%d %s", slot, name)
		for _, x := range v {
			fmt.Fprintf(&b, " %016x", math.Float64bits(x))
		}
		fmt.Fprintf(&b, " %+v\n", h)
	}
	for slot := 0; slot < 24; slot++ {
		s := st.FetchSlot(slot)
		for l, h := range s.Health.Prices {
			line(slot, fmt.Sprintf("price%d", l), s.Prices[l:l+1], h)
		}
		line(slot, "arrival0", s.Arrivals[0], s.Health.Arrivals[0])
	}
	path := filepath.Join("testdata", "faulted_feeds.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/feed/ -run TestFaultedFeedsGolden -update` to create it)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("faulted feed readings drifted from the golden vector\ngot:\n%s", b.String())
	}
}

// TestCleanFetchSeedsNothing guards the cost of the pass-through: a
// fetch no fault draws from must not build math/rand's ~5 KB seeded
// source (two objects when it was built eagerly), and the reading is the
// feed's own, refilled in place (three objects while the source, the
// observation and the caller each had a copy): a clean fetch allocates
// nothing.
func TestCleanFetchSeedsNothing(t *testing.T) {
	st := testSet(t, Config{Seed: 42}, faultedSchedule())
	f := st.arrivals[0] // its faults start at slot 4
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { f.Fetch(3) })
	runtime.ReadMemStats(&after)
	perFetch := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if allocs != 0 || perFetch > 256 {
		t.Fatalf("clean Fetch allocates %v objects, %d bytes; want none", allocs, perFetch)
	}
}
