package dispatch

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"profitlb/internal/core"
)

// benchGateway compiles the fixture plan and installs it.
func benchGateway(b testing.TB) *Gateway {
	in := testInput(testSystem())
	plan, err := core.NewOptimized().Plan(in)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Seed: 1, SlotSeconds: 60}
	tab, err := Compile(in, plan, cfg)
	if err != nil {
		b.Fatal(err)
	}
	gw := NewGateway(in.Sys, cfg, nil)
	gw.Install(tab, 0, 0)
	return gw
}

// BenchmarkDispatchHotPath times Gateway.Handle — the per-request path —
// on the fixture plan. The target is 0 allocs/op: the alias draw, the
// bucket take and the Decision are all value operations.
func BenchmarkDispatchHotPath(b *testing.B) {
	gw := benchGateway(b)
	T := gw.Table().SlotLen
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := T * float64(i%1000) / 1000
		gw.Handle(i&1, (i>>1)&1, now)
	}
}

// BenchmarkDispatchHotPathParallel exercises the same path from all
// procs: the only contention is the drawn lane's bucket mutex.
func BenchmarkDispatchHotPathParallel(b *testing.B) {
	gw := benchGateway(b)
	T := gw.Table().SlotLen
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			now := T * float64(i%1000) / 1000
			gw.Handle(i&1, (i>>1)&1, now)
			i++
		}
	})
}

// synthPlan fills a plan for fleetInput(K, L, S) without an LP: stream
// (k, s) sends its arrivals, split evenly over both levels, to every
// 32nd center (offset by s) whose class-k energy draw is cheap: 240 lanes
// at 20×100×3, where the LP plan has 61. Every center powers all its
// servers and grants each commodity an equal share.
func synthPlan(K, L, S int) (*core.Input, *core.Plan) {
	in := fleetInput(K, L, S, 5)
	plan := core.NewPlan(in.Sys)
	for k := 0; k < K; k++ {
		for s := 0; s < S; s++ {
			var to []int
			for l := s; l < L; l += 32 {
				if in.Sys.Centers[l].EnergyPerRequest[k] < 1 {
					to = append(to, l)
				}
			}
			for q := range plan.Rate[k] {
				for _, l := range to {
					plan.Rate[k][q][s][l] = in.Arrivals[s][k] / float64(len(to)*len(plan.Rate[k]))
				}
			}
		}
	}
	for l := 0; l < L; l++ {
		plan.ServersOn[l] = in.Sys.Centers[l].Servers
		for k := range plan.Phi[l] {
			for q := range plan.Phi[l][k] {
				plan.Phi[l][k][q] = 1 / float64(K*len(plan.Phi[l][k]))
			}
		}
	}
	return in, plan
}

// fleetSizes are the synthetic plans the table benchmarks and allocation
// budgets run at: a small fleet and fleet-large's 20×100×3 (types ×
// centers × front-ends).
var fleetSizes = []struct {
	name    string
	K, L, S int
}{{"fleet-3x4x2", 3, 4, 2}, {"fleet-20x100x3", 20, 100, 3}}

// BenchmarkCompile times the slot-boundary cost: freezing a committed
// plan into a routing table, for the LP-planned 2×2×2 fixture and the
// synthetic fleet-large plan.
func BenchmarkCompile(b *testing.B) {
	cfg := Config{Seed: 1, SlotSeconds: 60}
	run := func(b *testing.B, in *core.Input, plan *core.Plan) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compile(in, plan, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fixture-2x2x2", func(b *testing.B) {
		in := testInput(testSystem())
		plan, err := core.NewOptimized().Plan(in)
		if err != nil {
			b.Fatal(err)
		}
		run(b, in, plan)
	})
	b.Run("fleet-20x100x3", func(b *testing.B) {
		in, plan := synthPlan(20, 100, 3)
		run(b, in, plan)
	})
}

// BenchmarkApply times the replica half of a fleet-large commit as an
// in-process fleet runs it: the published wire table decoded once for 8
// replicas, their shares cut together (Shares), and each installed on its
// replica's gateway, every slot a new one.
func BenchmarkApply(b *testing.B) {
	const replicas = 8
	cfg := Config{Seed: 1, SlotSeconds: 60}
	in, plan := synthPlan(20, 100, 3)
	tab, err := Compile(in, plan, cfg)
	if err != nil {
		b.Fatal(err)
	}
	w := *tab.Wire()
	gws := make([]*Gateway, replicas)
	for r := range gws {
		gws[r] = NewGateway(in.Sys, cfg, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Slot = i
		full, err := FromWire(&w)
		if err != nil {
			b.Fatal(err)
		}
		shares, err := full.Shares(replicas, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for r, gw := range gws {
			gw.Install(&shares[r], w.SlotLen*float64(i), 0)
		}
	}
}

// TestDispatchHotPathTrajectory measures the request path — ns/op and
// allocs/op — and writes the point to the file named by
// BENCH_DISPATCH_JSON (skipped when unset; `make bench` sets it). It
// also enforces the subsystem's headline property: the hot path must not
// allocate.
func TestDispatchHotPathTrajectory(t *testing.T) {
	out := os.Getenv("BENCH_DISPATCH_JSON")
	if out == "" {
		t.Skip("set BENCH_DISPATCH_JSON=FILE to record the benchmark trajectory")
	}
	gw := benchGateway(t)
	T := gw.Table().SlotLen
	var i int
	allocs := testing.AllocsPerRun(10000, func() {
		now := T * float64(i%1000) / 1000
		gw.Handle(i&1, (i>>1)&1, now)
		i++
	})
	if allocs != 0 {
		t.Errorf("hot path allocates %.1f allocs/op, want 0", allocs)
	}
	const n = 2_000_000
	best := time.Duration(1 << 62)
	for round := 0; round < 3; round++ {
		start := time.Now()
		for j := 0; j < n; j++ {
			now := T * float64(j%1000) / 1000
			gw.Handle(j&1, (j>>1)&1, now)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	nsPerOp := float64(best.Nanoseconds()) / n
	updateBenchJSON(t, out, "dispatch_hot_path", map[string]any{
		"bench":     "dispatch-hot-path",
		"scenario":  "2x2x2 optimized plan",
		"workers":   runtime.NumCPU(),
		"ns_per_op": nsPerOp,
		"allocs_op": allocs,
		"lanes":     len(gw.Table().Lanes),
	})
}

// updateBenchJSON read-modify-writes one top-level section of the
// benchmark trajectory file, so the dispatch and control trajectory
// tests can share BENCH_dispatch.json without clobbering each other. A
// missing or legacy single-object file starts the document fresh.
func updateBenchJSON(t *testing.T, path, key string, section any) {
	t.Helper()
	doc := map[string]json.RawMessage{}
	if blob, err := os.ReadFile(path); err == nil {
		var probe map[string]json.RawMessage
		if json.Unmarshal(blob, &probe) == nil {
			if _, legacy := probe["bench"]; !legacy {
				doc = probe
			}
		}
	}
	raw, err := json.Marshal(section)
	if err != nil {
		t.Fatal(err)
	}
	doc[key] = raw
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s section of %s: %s", key, path, raw)
}
