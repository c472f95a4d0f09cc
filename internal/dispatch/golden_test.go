package dispatch

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/tuf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/product.golden (only at a commit whose routing state is the reference)")

// fleetInput is the root determinism harness's synthetic topology at a
// chosen size: two-level TUFs, half of the (class, center) pairs priced
// out, so a stream's plan spreads over several centers and both levels.
func fleetInput(K, L, S, slot int) *core.Input {
	sys := &datacenter.System{}
	for k := 0; k < K; k++ {
		u := 12 + float64(k)
		sys.Classes = append(sys.Classes, datacenter.RequestClass{
			Name:                fmt.Sprintf("class%02d", k),
			TUF:                 tuf.MustNew([]tuf.Level{{Utility: u, Deadline: 0.02}, {Utility: u * 0.45, Deadline: 0.08}}),
			TransferCostPerMile: 0.00005,
		})
	}
	arrivals := make([][]float64, S)
	for s := 0; s < S; s++ {
		d := make([]float64, L)
		for l := range d {
			d[l] = 200 + 37*float64((s*7+l*11)%29)
		}
		sys.FrontEnds = append(sys.FrontEnds, datacenter.FrontEnd{Name: fmt.Sprintf("fe%d", s), DistanceMiles: d})
		arrivals[s] = make([]float64, K)
		for k := range arrivals[s] {
			arrivals[s][k] = 400 + 30*float64((s+k)%7)
		}
	}
	prices := make([]float64, L)
	for l := 0; l < L; l++ {
		mu, en := make([]float64, K), make([]float64, K)
		for k := range mu {
			mu[k] = 900 + 20*float64((l+k)%6)
			en[k] = 1.5
			if (l*7+k)%2 == 0 {
				en[k] = 0.0004 + 0.00002*float64((l*3+k)%5)
			}
		}
		sys.Centers = append(sys.Centers, datacenter.DataCenter{
			Name: fmt.Sprintf("dc%02d", l), Servers: 4, Capacity: 1, ServiceRate: mu, EnergyPerRequest: en,
		})
		prices[l] = 30 + float64(l%9)
	}
	return &core.Input{Sys: sys, Arrivals: arrivals, Prices: prices, Slot: slot}
}

// fleetTable plans and compiles one slot of the 6×10×3 fleet at three
// times its arrivals, where the centers fill up and streams split.
func fleetTable(t testing.TB, cfg Config) (*core.Input, *Table) {
	t.Helper()
	in := fleetInput(6, 10, 3, 5)
	for s := range in.Arrivals {
		for k := range in.Arrivals[s] {
			in.Arrivals[s][k] *= 3
		}
	}
	plan, err := core.NewOptimized().Plan(in)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	tab, err := Compile(in, plan, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return in, tab
}

// dumpProduct writes everything a table decides: its wire bytes (header,
// lanes with their bursts, arrival budgets) and, per stream, the budgets,
// the draw seed and the first 256 routing draws.
func dumpProduct(w *bytes.Buffer, name string, tab *Table) {
	js, err := json.Marshal(tab.Wire())
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "== %s\nwire %s\n", name, js)
	for k := 0; k < tab.K(); k++ {
		for s := 0; s < tab.S(); s++ {
			e := &tab.entries[k][s]
			fmt.Fprintf(w, "stream %d %d planned=%.17g arrival=%.17g seed=%d draws", k, s, e.planned, e.arrival, e.seed)
			for seq := uint64(0); seq < 256; seq++ {
				fmt.Fprintf(w, " %d", e.draw(seq))
			}
			w.WriteByte('\n')
		}
	}
}

// TestProductGolden pins the dispatch plane's product bit for bit — wire
// bytes, per-stream budgets, seeds and routing draws — for every way a
// table comes to exist: compiled, decoded, subdivided, scaled, rescaled
// and the all-shed table. It was written at the commit before the table
// builders were folded into one; a change that means to keep routing state
// identical regenerates nothing.
func TestProductGolden(t *testing.T) {
	cfg := Config{Seed: 97, SlotSeconds: 60}
	_, _, small := testTable(t, cfg)
	fin, fleet := fleetTable(t, cfg)
	// The same plan on ten-minute slots: T is no power of two, so the
	// order in which a burst's factors are multiplied shows in its last bit.
	tin := testInput(testSystem())
	tin.Sys.SlotHours = 1.0 / 6
	tplan, err := core.NewOptimized().Plan(tin)
	if err != nil {
		t.Fatal(err)
	}
	tenMin, err := Compile(tin, tplan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, fx := range []struct {
		name string
		tab  *Table
	}{{"testTable", small}, {"testTable T=1/6", tenMin}, {"fleet-6x10x3", fleet}} {
		tab := fx.tab
		tab.Epoch, tab.Sub = 11, 2
		dumpProduct(&got, fx.name+" compile", tab)
		back, err := FromWire(tab.Wire())
		if err != nil {
			t.Fatal(err)
		}
		dumpProduct(&got, fx.name+" fromwire", back)
		for i := 0; i < 4; i++ {
			sub, err := tab.Subdivide(i, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dumpProduct(&got, fmt.Sprintf("%s subdivide %d/4", fx.name, i), sub)
		}
		dumpProduct(&got, fx.name+" scale 0.5", tab.Scale(0.5, "stale", cfg))
		mult := make([]float64, len(tab.Lanes))
		for i := range mult {
			mult[i] = 0.5 + 0.25*float64(i%7) // 0.5 … 2: some lanes hit their MaxRate cap
		}
		re, err := tab.Rescale(mult, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dumpProduct(&got, fx.name+" rescale", re)
	}
	dumpProduct(&got, "shed testTable", ShedTable(testSystem(), 3, cfg))
	dumpProduct(&got, "shed fleet-6x10x3", ShedTable(fin.Sys, 3, cfg))

	path := filepath.Join("testdata", "product.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it at the parent commit with -update)", err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range gl {
			if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("routing state drifted from the golden file at line %d:\n got  %.300s", i+1, gl[i])
			}
		}
		t.Fatalf("routing state drifted from the golden file: %d lines, want %d", len(gl), len(wl))
	}
}
