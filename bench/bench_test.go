package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"

	"profitlb/internal/sim"
)

// configHash fingerprints everything a generated configuration hands the
// program: topology numbers, every trace rate and every price.
func configHash(cfg sim.Config) string {
	h := fnv.New64a()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, c := range cfg.Sys.Classes {
		h.Write([]byte(c.Name))
		for _, lv := range c.TUF.Levels() {
			put(lv.Utility)
			put(lv.Deadline)
		}
		put(c.TransferCostPerMile)
	}
	for _, fe := range cfg.Sys.FrontEnds {
		h.Write([]byte(fe.Name))
		for _, d := range fe.DistanceMiles {
			put(d)
		}
	}
	for _, dc := range cfg.Sys.Centers {
		h.Write([]byte(dc.Name))
		put(float64(dc.Servers))
		for k := range dc.ServiceRate {
			put(dc.ServiceRate[k])
			put(dc.EnergyPerRequest[k])
		}
	}
	for _, tr := range cfg.Traces {
		for _, row := range tr.Rates {
			for _, v := range row {
				put(v)
			}
		}
	}
	for _, pt := range cfg.Prices {
		for _, v := range pt.Prices {
			put(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	paper := func(seed int64) string { return configHash(paperConfig(seed, 1)) }
	synth := func(seed int64) string { return configHash(synthConfig(synthSystem(4, 6, 2), seed)) }
	for name, gen := range map[string]func(int64) string{"paper": paper, "synth": synth} {
		if a, b := gen(7), gen(7); a != b {
			t.Errorf("%s: seed 7 hashed to %s then %s", name, a, b)
		}
		if a, b := gen(7), gen(8); a == b {
			t.Errorf("%s: seeds 7 and 8 generate identical inputs (%s)", name, a)
		}
	}
	if a, b := configHash(paperConfig(7, 1)), configHash(paperConfig(7, httpRateScale)); a == b {
		t.Error("rate scale does not reach the generated inputs")
	}
}

func TestRequestMixIsSeedDeterministic(t *testing.T) {
	view, err := buildHTTPScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := view.requestMix(3, 500), view.requestMix(3, 500), view.requestMix(4, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed drew different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same request sequence")
	}
	seen := map[int]bool{}
	for _, st := range a {
		seen[st] = true
	}
	if len(seen) < 2 {
		t.Errorf("request mix covers %d streams", len(seen))
	}
}

func TestPercentileMedianQuartiles(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		p, want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(ten, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median(ten); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(ten)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if ten[0] != 10 {
		t.Error("helpers reordered the caller's sample")
	}
}

func TestFloors(t *testing.T) {
	var f floors
	for _, l := range []lap{{1, 5 * time.Millisecond}, {0, 3 * time.Millisecond}, {1, 2 * time.Millisecond}, {1, 4 * time.Millisecond}, {0, 7 * time.Millisecond}} {
		f.add(l)
	}
	if !reflect.DeepEqual(f.ms, []float64{3, 2}) || !reflect.DeepEqual(f.repeats, []int{2, 3}) {
		t.Errorf("floors = %v over %v repeats, want [3 2] over [2 3]", f.ms, f.repeats)
	}
	if got := f.sumMS(); got != 5 {
		t.Errorf("sumMS = %v, want 5", got)
	}
	f.add(lap{3, time.Millisecond}) // phase 2 never ran: it has no floor and is not the thinnest
	if got := f.minRepeats(); got != 1 {
		t.Errorf("minRepeats = %v, want 1", got)
	}
	if got := f.sumMS(); got != 6 {
		t.Errorf("sumMS with an empty phase = %v, want 6", got)
	}
}

func TestMeter(t *testing.T) {
	m := newMeter()
	if got := m.slowdown(); got != 1 {
		t.Errorf("slowdown before any reading = %v, want 1", got)
	}
	m.read()
	if m.n != meterBurst || m.floor <= 0 || m.slowdown() < 1 {
		t.Errorf("after one reading: %d chunks, floor %v, slowdown %v", m.n, m.floor, m.slowdown())
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	line := "4242 (pro fit) lb) S 1 4242 4242 0 -1 4194560 1210 0 0 0 153 47 0 0 20 0 7 0 8840 1270386688 3841 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	user, sys, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if user != 1.53 || sys != 0.47 {
		t.Errorf("user, sys = %v, %v; want 1.53, 0.47", user, sys)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted a malformed line", bad)
		}
	}
	if _, _, err := procCPU(1 << 30); err == nil {
		t.Error("procCPU of a pid that cannot exist returned no error")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tprofitlb\nVmPeak:\t 1240612 kB\nVmHWM:\t   15364 kB\nVmRSS:\t   15000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if want := 15364.0 / 1024; got != want {
		t.Errorf("VmHWM = %v MB, want %v", got, want)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("a status file without VmHWM parsed")
	}
}

func TestJudge(t *testing.T) {
	rep := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v + 0.001*float64(i) // a hair of spread, no ties
		}
		return out
	}
	wide := []float64{70, 80, 90, 100, 100, 100, 110, 120, 130, 140}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		lower  bool
		bound  float64
		expect verdict
	}{
		{"steady", rep(100, 10), rep(101, 10), true, 0.10, verdictOK},
		{"slower beyond the bound", rep(100, 10), rep(115, 10), true, 0.10, verdictRegression},
		{"throughput lost beyond the bound", rep(100, 10), rep(85, 10), false, 0.10, verdictRegression},
		{"throughput gained", rep(100, 10), rep(120, 10), false, 0.10, verdictImproved},
		{"faster in every pair", rep(100, 10), rep(80, 10), true, 0.10, verdictImproved},
		{"noisy parent hides the bound", wide, rep(105, 10), true, 0.10, verdictUnresolved},
		{"noisy parent, yet every run better", wide, rep(50, 10), true, 0.10, verdictImproved},
		{"wins only eight of ten pairs", rep(100, 10), append(rep(90, 8), 100.5, 100.6), true, 0.10, verdictOK},
		{"faster, but only five pairs", rep(100, 5), rep(80, 5), true, 0.10, verdictOK},
	} {
		if got := judge(tc.a, tc.b, tc.lower, tc.bound); got.verdict != tc.expect {
			t.Errorf("%s: verdict %s, want %s (%+v)", tc.name, got.verdict, tc.expect, got)
		}
	}
	j := judge([]float64{1, 2, 3}, []float64{1, 1, 4}, true, 0.5)
	if j.wins != 1 || j.losses != 1 || j.ties != 1 {
		t.Errorf("pairs tallied %d/%d/%d, want 1/1/1", j.wins, j.losses, j.ties)
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer(12)
	root := tr.begin("fleet.slot", 1)
	a := tr.begin("cluster.publish", 1)
	b := tr.begin("core.plan", 1)
	time.Sleep(2 * time.Millisecond)
	tr.end(b)
	tr.end(a)
	c := tr.begin("cluster.apply", 1)
	time.Sleep(time.Millisecond)
	tr.end(c)
	tr.end(root)
	other := tr.begin("probe", 1)
	tr.end(other)

	if got := []int{tr.spans[a].Parent, tr.spans[b].Parent, tr.spans[c].Parent, tr.spans[other].Parent}; !reflect.DeepEqual(got, []int{root, a, root, -1}) {
		t.Errorf("parents = %v", got)
	}
	self := tr.selfTimes()
	dur := func(i int) int64 { return tr.spans[i].End - tr.spans[i].Start }
	if self[root] != dur(root)-dur(a)-dur(c) || self[a] != dur(a)-dur(b) || self[b] != dur(b) {
		t.Errorf("self times %v do not subtract direct children", self)
	}
	if r := tr.selfSumRatio("fleet.slot"); math.Abs(r-1) > 1e-12 {
		t.Errorf("self times sum to %v of the root span, want 1", r)
	}
	if got := tr.floorUS("core.plan"); got < 2000 {
		t.Errorf("core.plan floor = %v µs, slept 2 ms inside it", got)
	}
	// A second, shorter core.plan in the same phase of the day lowers the
	// floor; one in another phase is averaged in.
	tr.spans = append(tr.spans, span{Name: "core.plan", Slot: 1 + 12, Start: 0, End: 1000_000},
		span{Name: "core.plan", Slot: 2, Start: 0, End: 3000_000})
	if got := tr.floorUS("core.plan"); got != 2000 {
		t.Errorf("core.plan floor = %v µs, want (1000 + 3000) / 2", got)
	}
	if got := tr.floorUS("absent"); got != 0 {
		t.Errorf("floor of a span that never ran = %v", got)
	}
	var none *tracer
	none.end(none.begin("x", 0)) // a nil tracer is the untraced run
}

// TestSmoke drives every workload end to end at smoke size — traced,
// which also runs an untraced segment — so tier-1 `go test ./...`
// exercises the wiring and every correctness check, and confirms that
// each metric BENCHMARK.json lists is emitted.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the serve binary")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the suite has %d", len(spec.Workloads), len(workloads))
	}
	check := func(t *testing.T, name string, trace bool) {
		o := &options{workload: name, seed: 5, seconds: 0.4, trace: trace, smoke: true, root: root}
		res, err := runOne(o, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.problems {
			t.Errorf("check failed: %s", p)
		}
		rep := res.report(trace)
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
		}
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
		}
		for _, ms := range want {
			m, ok := rep.Metrics[ms.Name]
			switch {
			case !ok:
				t.Errorf("metric %s missing", ms.Name)
			case m.Unit != ms.Unit:
				t.Errorf("metric %s in %q, BENCHMARK.json says %q", ms.Name, m.Unit, ms.Unit)
			case !trace && !(m.Value > 0):
				t.Errorf("end-to-end metric %s = %v, must be positive", ms.Name, m.Value)
			}
		}
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the suite", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) { check(t, w.name, true) })
	}
	// The end-to-end emission path, on the cheapest workload.
	t.Run("paper-day/untraced", func(t *testing.T) { check(t, "paper-day", false) })
}
