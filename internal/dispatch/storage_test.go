package dispatch

import (
	"math"
	"reflect"
	"testing"

	"profitlb/internal/race"
)

// TestTableAllocs: every way a table comes to exist costs a fixed handful
// of slabs, whatever the number of streams and lanes. The budgets are the
// slabs themselves: a table with its lanes and ServersOn (Wire shares the
// table's two, and adds its arrival rows and their header); the entry
// grid and its row headers, and one []int32 and one []float64 that hold
// the lane lists, the alias tables and the Vose scratch (index, weigh);
// Compile's per-center share totals; and a derived table's lanes and
// entry grid (derive), whose three slabs Shares cuts a fleet's shares
// from (TestSharesAreSubdivisions).
func TestTableAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector moves allocations to the heap")
	}
	cfg := Config{Seed: 1, SlotSeconds: 60}
	for _, sz := range fleetSizes {
		in, plan := synthPlan(sz.K, sz.L, sz.S)
		tab, err := Compile(in, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := tab.Wire()
		mult := make([]float64, len(tab.Lanes))
		for i := range mult {
			mult[i] = 0.5 + 0.25*float64(i%7)
		}
		for _, op := range []struct {
			name   string
			budget float64
			run    func() error
		}{
			{"Compile", 8, func() error { _, err := Compile(in, plan, cfg); return err }},
			{"Wire", 3, func() error { tab.Wire(); return nil }},
			{"FromWire", 7, func() error { _, err := FromWire(w); return err }},
			{"Subdivide(3, 8)", 4, func() error { _, err := tab.Subdivide(3, 8, cfg); return err }},
			{"Shares(8)", 4, func() error { _, err := tab.Shares(8, cfg); return err }},
			{"Rescale", 6, func() error { _, err := tab.Rescale(mult, 1, cfg); return err }},
		} {
			var err error
			if got := testing.AllocsPerRun(100, func() { err = op.run() }); err != nil || got > op.budget {
				t.Errorf("%s: %s of %d lanes makes %v allocations (err %v), budget %v", sz.name, op.name, len(tab.Lanes), got, err, op.budget)
			}
		}
	}
}

// routing is everything a table's streams decide by: lane lists, alias
// tables bit for bit, and the first 256 draws.
type routing struct {
	lanes [][]int32
	prob  [][]uint64
	alias [][]int32
	draws [][]int32
}

func routingOf(tab *Table) routing {
	var r routing
	for k := range tab.entries {
		for s := range tab.entries[k] {
			e := &tab.entries[k][s]
			r.lanes = append(r.lanes, append([]int32(nil), e.lanes...))
			r.alias = append(r.alias, append([]int32(nil), e.alias...))
			var bits []uint64
			for _, p := range e.prob {
				bits = append(bits, math.Float64bits(p))
			}
			r.prob = append(r.prob, bits)
			var draws []int32
			for seq := uint64(0); seq < 256; seq++ {
				draws = append(draws, e.draw(seq))
			}
			r.draws = append(r.draws, draws)
		}
	}
	return r
}

// TestSharesAreSubdivisions: Shares cuts each replica's share from slabs
// it shares with its peers, and each is Subdivide's share to the bit
// (routing included); writing through one share's lanes and entries
// leaves its peers where they were. A fleet of one gets the table's own
// header and slices.
func TestSharesAreSubdivisions(t *testing.T) {
	cfg := Config{Seed: 5, SlotSeconds: 60}
	_, tab := fleetTable(t, cfg)
	const n = 8
	shares, err := tab.Shares(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Table, n)
	for i := range want {
		if want[i], err = tab.Subdivide(i, n, cfg); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&shares[i], want[i]) || !reflect.DeepEqual(routingOf(&shares[i]), routingOf(want[i])) {
			t.Fatalf("share %d differs from Subdivide(%d, %d)", i, i, n)
		}
	}
	first := &shares[0]
	for i := range first.Lanes {
		first.Lanes[i].Rate = -1
	}
	for k := range first.entries {
		for s := range first.entries[k] {
			first.entries[k][s].seed, first.entries[k][s].arrival = 0, -1
		}
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(&shares[i], want[i]) {
			t.Fatalf("writing through share 0 changed share %d", i)
		}
	}
	one, err := tab.Shares(1, cfg)
	if err != nil || !reflect.DeepEqual(&one[0], tab) {
		t.Fatalf("a fleet of one got another table (%v)", err)
	}
}

// TestDeriveLeavesParent: Subdivide, Shares, Scale and Rescale share their
// parent's lane lists (and, all but Rescale, its alias tables), so a
// child that is re-weighed, or whose lane lists and lanes are written
// through, must leave the parent's routing bit for bit where it was.
func TestDeriveLeavesParent(t *testing.T) {
	cfg := Config{Seed: 5, SlotSeconds: 60}
	_, tab := fleetTable(t, cfg)
	want, lanes := routingOf(tab), append([]Lane(nil), tab.Lanes...)
	mult := make([]float64, len(tab.Lanes))
	for i := range mult {
		mult[i] = 0.5 + 0.25*float64(i%7)
	}
	var children []*Table
	for i := 0; i < 8; i++ {
		sub, err := tab.Subdivide(i, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		children = append(children, sub)
	}
	shares, err := tab.Shares(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shares {
		children = append(children, &shares[i])
	}
	children = append(children, tab.Scale(0.5, "stale", cfg))
	re, err := tab.Rescale(mult, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	children = append(children, re)
	for _, c := range children {
		for i := range c.Lanes {
			c.Lanes[i].Rate *= mult[len(mult)-1-i]
		}
		c.weigh(nil, nil)
		for k := range c.entries {
			for s := range c.entries[k] {
				e := &c.entries[k][s]
				e.lanes = append(e.lanes, 0)
				e.seed++
			}
		}
	}
	if !reflect.DeepEqual(routingOf(tab), want) {
		t.Fatal("deriving and rewriting children changed the parent's routing")
	}
	if !reflect.DeepEqual(tab.Lanes, lanes) {
		t.Fatal("deriving and rewriting children changed the parent's lanes")
	}
}
