package dispatch

import (
	"math"
	"reflect"
	"testing"

	"profitlb/internal/race"
)

// TestTableAllocs: every way a table comes to exist costs a fixed handful
// of slabs, whatever the number of streams and lanes. The budgets are the
// slabs themselves: a table (or wire form) with its lanes and ServersOn;
// the arrival rows (Wire); the entry grid, its row headers, the lane-count
// scratch and lane lists (index); Compile's per-center share totals; the
// derived lanes and entry grid (derive); and weigh's prob and alias slabs
// and two-slab Vose scratch.
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
			{"Compile", 12, func() error { _, err := Compile(in, plan, cfg); return err }},
			{"Wire", 5, func() error { tab.Wire(); return nil }},
			{"FromWire", 11, func() error { _, err := FromWire(w); return err }},
			{"Subdivide(3, 8)", 4, func() error { _, err := tab.Subdivide(3, 8, cfg); return err }},
			{"Rescale", 8, func() error { _, err := tab.Rescale(mult, 1, cfg); return err }},
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

// TestDeriveLeavesParent: Subdivide, Scale and Rescale share their
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
		c.weigh()
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
