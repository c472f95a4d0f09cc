package dispatch

import (
	"fmt"
	"math"
)

// TableWire is the serializable form of a compiled routing table: what
// the cluster control plane publishes to gateway replicas over HTTP. It
// carries the lanes in compile order plus the per-stream arrival budgets;
// the alias tables are not shipped — FromWire rebuilds them from the lane
// rates with the same deterministic construction Compile uses, so a
// round-tripped table routes identically to the original.
type TableWire struct {
	Header
	K        int         `json:"k"`
	S        int         `json:"s"`
	Lanes    []Lane      `json:"lanes"`
	Arrivals [][]float64 `json:"arrivals"` // [k][s] planner-budgeted arrival rates
}

// Wire serializes the table. The lane and ServersOn slices are copied;
// the table stays immutable.
func (t *Table) Wire() *TableWire {
	w := &TableWire{
		Header:   t.Header,
		K:        t.K(),
		S:        t.S(),
		Lanes:    append([]Lane(nil), t.Lanes...),
		Arrivals: make([][]float64, t.K()),
	}
	w.ServersOn = append([]int(nil), t.ServersOn...)
	for k, row := range t.entries {
		w.Arrivals[k] = make([]float64, len(row))
		for s := range row {
			w.Arrivals[k][s] = row[s].arrival
		}
	}
	return w
}

// FromWire reconstructs a routing table from its wire form, rebuilding
// the per-stream alias tables from the lane rates. It validates what a
// hostile or corrupted payload can get wrong on its own terms —
// dimensions, stream coordinates, non-finite rates — and rejects rather
// than installing garbage into a gateway. Whether the table fits a given
// topology (K, S, center and level indices, ServersOn) it cannot know;
// the replica that installs it checks that (cluster.Replica.Apply).
func FromWire(w *TableWire) (*Table, error) {
	if w == nil {
		return nil, fmt.Errorf("dispatch: nil wire table")
	}
	if w.K <= 0 || w.S <= 0 {
		return nil, fmt.Errorf("dispatch: wire table shaped %d×%d streams", w.K, w.S)
	}
	if w.SlotLen <= 0 || math.IsNaN(w.SlotLen) || math.IsInf(w.SlotLen, 0) {
		return nil, fmt.Errorf("dispatch: wire table slot length %g", w.SlotLen)
	}
	if len(w.Arrivals) != w.K {
		return nil, fmt.Errorf("dispatch: wire table has %d arrival rows for %d types", len(w.Arrivals), w.K)
	}
	for k := range w.Arrivals {
		if len(w.Arrivals[k]) != w.S {
			return nil, fmt.Errorf("dispatch: wire table arrival row %d has %d front-ends for %d", k, len(w.Arrivals[k]), w.S)
		}
	}
	t := &Table{Header: w.Header, Lanes: append([]Lane(nil), w.Lanes...)}
	t.ServersOn = append([]int(nil), w.ServersOn...)
	for i := range t.Lanes {
		ln := &t.Lanes[i]
		if ln.K < 0 || ln.K >= w.K || ln.S < 0 || ln.S >= w.S {
			return nil, fmt.Errorf("dispatch: wire lane %d addresses stream (%d,%d) of %d×%d", i, ln.K, ln.S, w.K, w.S)
		}
		if ln.Rate <= 0 || math.IsNaN(ln.Rate) || math.IsInf(ln.Rate, 0) {
			return nil, fmt.Errorf("dispatch: wire lane %d has rate %g", i, ln.Rate)
		}
		if ln.Burst < 0 || math.IsNaN(ln.Burst) || math.IsInf(ln.Burst, 0) {
			return nil, fmt.Errorf("dispatch: wire lane %d has burst %g", i, ln.Burst)
		}
		if math.IsNaN(ln.MaxRate) || math.IsInf(ln.MaxRate, 0) {
			return nil, fmt.Errorf("dispatch: wire lane %d has max rate %g", i, ln.MaxRate)
		}
		if ln.MaxRate < ln.Rate {
			// Unknown (0), negative, or sub-rate headroom all normalize to
			// "no headroom": the lane's own rate.
			ln.MaxRate = ln.Rate
		}
	}
	t.index(w.K, w.S, func(k, s int) float64 { return w.Arrivals[k][s] })
	return t, nil
}
