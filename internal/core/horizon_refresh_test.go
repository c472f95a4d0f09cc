package core

import (
	"fmt"
	"math"
	"testing"

	"profitlb/internal/lp"
)

// windowRig holds one windowLP across a sequence of windows and, after
// every step, sets it against a from-scratch build of the same window,
// as refreshRig does for a slot's LP.
type windowRig struct {
	t        testing.TB
	base     *Input // undrifted; slot t of the run is chainInput(base, t, …)
	at, H    int    // the window's first slot and its length
	maxDefer []int
	// buckets is every deferrable class's carried backlog (scaled per
	// (s, k)), cut to the class's allowance as a rolling controller's is
	// unless deep.
	buckets []float64
	deep    bool
	names   *dispatchNames
	held    windowLP
	// sv re-solves the held model the way a planner's hot chain does: on
	// the kernel it kept while the structure stands, else from a fresh
	// start.
	sv lp.Solver
}

func newWindowRig(t testing.TB, K, L, S int) *windowRig {
	r := &windowRig{t: t, base: synthInput(K, L, S), H: 4, maxDefer: make([]int, K)}
	for k := range r.maxDefer {
		r.maxDefer[k] = 2 * (k % 2)
	}
	var opts EngineOptions
	r.names = opts.namesFor(r.base.Sys)
	return r
}

func (r *windowRig) window() *HorizonInput {
	sys := r.base.Sys
	h := &HorizonInput{Sys: sys, MaxDefer: r.maxDefer}
	h.Arrivals, h.Prices = horizonChainSlots(r.base, r.at, r.H)
	if r.buckets != nil {
		h.Backlog = make([][][]float64, sys.S())
		for s := range h.Backlog {
			h.Backlog[s] = make([][]float64, sys.K())
			for k, d := range r.maxDefer {
				n := min(d, len(r.buckets))
				if r.deep && d > 0 {
					n = len(r.buckets)
				}
				for _, v := range r.buckets[:n] {
					h.Backlog[s][k] = append(h.Backlog[s][k], v*(1+0.1*float64(s+k)))
				}
			}
		}
	}
	return h
}

// check builds the step's window into the held windowLP and from scratch,
// requires the two models equal in every name, term, sense, right-hand
// side and objective coefficient, and their optima — the held one's by a
// warm solver that kept its kernel, the fresh one's cold — equal to 1e-9.
// It reports whether the held structure was built again and how the warm
// solve ran.
func (r *windowRig) check(step string) (rebuilt bool, path string) {
	r.t.Helper()
	h := r.window()
	if err := h.Validate(); err != nil {
		r.t.Fatalf("%s: %v", step, err)
	}
	r.held.build(h, r.names)
	var fresh windowLP
	fresh.build(h, r.names)
	requireSameModel(r.t, step, &r.held.model, &fresh.model)
	got, err := r.sv.SolveWarm(&r.held.model, nil, lp.Options{})
	if err != nil {
		r.t.Fatalf("%s: held model: %v", step, err)
	}
	want, err := fresh.model.SolveOpts(lp.Options{})
	if err != nil {
		r.t.Fatalf("%s: fresh model: %v", step, err)
	}
	if math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
		r.t.Fatalf("%s: held model solves to %.12g, a fresh build to %.12g", step, got.Objective, want.Objective)
	}
	return r.held.rebuilt, r.sv.LastOutcome().Path
}

// TestHorizonRefreshEqualsRebuild walks one held window LP through what a
// rolling run changes — the window sliding, numbers drifting, a backlog
// appearing, thinning and draining, a center pricing itself out of some
// blocks, the run's end truncating the window, an allowance changing — and
// requires it equal to a from-scratch build after every step, with the
// structure rebuilt on exactly the steps that changed it and the solver
// re-solving hot on every other.
func TestHorizonRefreshEqualsRebuild(t *testing.T) {
	r := newWindowRig(t, 4, 5, 3)
	steps := []struct {
		name    string
		do      func()
		rebuilt bool
	}{
		{"first build", func() {}, true},
		{"the window slides", func() { r.at++ }, false},
		{"and again", func() { r.at++ }, false},
		{"a backlog appears", func() { r.at++; r.buckets = []float64{30, 20} }, false},
		{"it thins to one bucket", func() { r.at++; r.buckets = []float64{12} }, false},
		{"only the deep bucket is left", func() { r.at++; r.buckets = []float64{0, 8} }, false},
		{"it drains", func() { r.at++; r.buckets = nil }, false},
		{"a bucket deeper than the allowance", func() { r.buckets, r.deep = []float64{5, 0, 9}, true }, true},
		{"and gone", func() { r.buckets, r.deep = nil, false }, true},
		{"a center prices itself out", func() { r.base.Prices[0] *= 1e5 }, true},
		{"slide without it", func() { r.at++ }, false},
		{"and back in", func() { r.base.Prices[0] /= 1e5 }, true},
		{"the run's end cuts the window", func() { r.at++; r.H = 3 }, true},
		{"and cuts it again", func() { r.at++; r.H = 2 }, true},
		{"a backlog in the short window", func() { r.buckets = []float64{0, 15} }, false},
		{"one slot left", func() { r.at++; r.H = 1 }, true},
		{"a longer allowance", func() { r.H = 4; r.maxDefer[1] = 3 }, true},
		{"slide under it", func() { r.at++ }, false},
		{"nothing may defer", func() { r.buckets = nil; clear(r.maxDefer) }, true},
		{"slide, uncoupled", func() { r.at++ }, false},
	}
	for _, st := range steps {
		st.do()
		if rebuilt, path := r.check(st.name); rebuilt != st.rebuilt || rebuilt == (path == "hot") {
			t.Fatalf("%s: structure rebuilt: %v, want %v; solved %s", st.name, rebuilt, st.rebuilt, path)
		}
	}
}

// FuzzHorizonRefresh drives TestHorizonRefreshEqualsRebuild's check from
// fuzz bytes. A step that only slides the window or moves a backlog inside
// the allowances, over blocks that admit what they admitted, must refresh;
// every step must leave the held window equal to a fresh one.
func FuzzHorizonRefresh(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 2, 0, 1, 1, 0, 2, 3, 0, 1, 3, 2, 4, 1, 0, 1, 3, 4, 2, 0})
	f.Add([]byte{1, 5, 4, 3, 0, 2, 1, 0, 3, 1, 3, 2, 3, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		r := newWindowRig(t, 3, 4, 2)
		r.check("first build")
		admitted := func() (sets string) {
			for t := range r.held.blocks {
				sets += fmt.Sprint(len(r.held.blocks[t].comms), ";")
				for _, c := range r.held.blocks[t].comms {
					sets += fmt.Sprint(c.k, c.q, c.l, " ")
				}
			}
			return sets
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, a := data[i]%5, int(data[i+1])
			before, numbersOnly := admitted(), false
			switch op {
			case 0:
				r.at += 1 + a%3
				numbersOnly = true
			case 1:
				r.buckets = [][]float64{nil, {30, 20}, {12}, {0, 8}, {0, 0}}[a%5]
				numbersOnly = true
			case 2:
				r.base.Prices[a%len(r.base.Prices)] = []float64{30, 3e6}[a%2]
			case 3:
				r.H = 1 + a%4
			case 4:
				r.maxDefer[a%len(r.maxDefer)] = a % 4
			}
			step := fmt.Sprintf("step %d (op %d, %d)", i/2, op, a)
			if rebuilt, _ := r.check(step); rebuilt && numbersOnly && admitted() == before {
				t.Fatalf("%s: moved numbers only and rebuilt the structure", step)
			}
		}
	})
}

// TestHorizonHeldRefreshedHot: a rolling planner holds its window LP. On
// the fleet chain every window after the first — the ones in which a
// backlog appears, thins and drains included — rebuilds nothing, crashes
// nothing and re-solves hot; when the run's end shortens the window, each
// new length costs exactly one rebuild, answered by a fresh start.
func TestHorizonHeldRefreshedHot(t *testing.T) {
	base := synthInput(6, 10, 3)
	hp := NewHorizonPlanner()
	hp.Stats = &SearchStats{}
	plan := func(name string, h *HorizonInput) {
		t.Helper()
		got, err := hp.Plan(h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifyHorizon(h, got, 1e-6); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for w := 0; w < horizonChainLen; w++ {
		name := fmt.Sprintf("window %d", w)
		plan(name, horizonChain(base, w))
		st, path := *hp.Stats, hp.warm.hot.sv.LastOutcome().Path
		if st.Solves != 1 || st.WarmFallbacks != 0 {
			t.Fatalf("%s: stats %+v, want one warm solve", name, st)
		}
		if w == 0 {
			if st.ModelRebuilds != 1 || path != "fresh" {
				t.Fatalf("%s: %d rebuilds, solved by %q; want the first build crashed", name, st.ModelRebuilds, path)
			}
		} else if st.ModelRebuilds != 0 || path != "hot" || st.ImportPivots != 0 || st.WarmHits != 1 {
			t.Fatalf("%s: solved by %q, stats %+v; want a refreshed model re-solved hot", name, path, st)
		}
	}
	for H := 3; H >= 1; H-- {
		for pass := 0; pass < 2; pass++ {
			name := fmt.Sprintf("window cut to %d slots, pass %d", H, pass)
			h := horizonChain(base, horizonChainLen+3-H+pass)
			h.Arrivals, h.Prices = h.Arrivals[:H], h.Prices[:H]
			plan(name, h)
			st, path := *hp.Stats, hp.warm.hot.sv.LastOutcome().Path
			if want := map[int]string{0: "fresh", 1: "hot"}[pass]; st.ModelRebuilds != int64(1-pass) || path != want || st.WarmFallbacks != 0 {
				t.Fatalf("%s: %d rebuilds, solved by %q (stats %+v); want %d, %q", name, st.ModelRebuilds, path, st, 1-pass, want)
			}
		}
	}
}

// BenchmarkHorizonSlot times one window of a rolling run at horizon 4 on
// the fleet chain (6×10×3, every odd class deferrable by two slots), both
// things a window can cost: first, a planner that holds nothing builds the
// window LP and crashes a basis into it; steady, a planner that holds the
// LP refreshes its numbers and re-solves hot. make profile W=horizon
// profiles the steady row.
func BenchmarkHorizonSlot(b *testing.B) {
	base := synthInput(6, 10, 3)
	windows := make([]*HorizonInput, horizonChainLen)
	for w := range windows {
		windows[w] = horizonChain(base, w)
	}
	run := func(b *testing.B, planner func(i int) *HorizonPlanner, wantRebuilds int64) {
		var pivots int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hp := planner(i)
			if _, err := hp.Plan(windows[(i+1)%len(windows)]); err != nil {
				b.Fatal(err)
			}
			if hp.Stats.ModelRebuilds != wantRebuilds || hp.Stats.WarmFallbacks != 0 {
				b.Fatalf("window %d ran %+v, want %d rebuilds", i, *hp.Stats, wantRebuilds)
			}
			pivots += hp.Stats.WarmPivots + hp.Stats.ImportPivots
		}
		b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	}
	fresh := func(int) *HorizonPlanner {
		hp := NewHorizonPlanner()
		hp.Stats = &SearchStats{}
		return hp
	}
	b.Run("first", func(b *testing.B) { run(b, fresh, 1) })
	b.Run("steady", func(b *testing.B) {
		held := fresh(0)
		if _, err := held.Plan(windows[0]); err != nil {
			b.Fatal(err)
		}
		run(b, func(int) *HorizonPlanner { return held }, 0)
	})
}
