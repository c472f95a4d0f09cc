package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's exported function (spans inside the program are a later
// issue). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Slot   int    `json:"slot"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// Every traced call in the benchmark happens on one goroutine, so the
// open-span stack needs no lock. A nil tracer records nothing: the
// untraced run and the traced run share the same decorators.
type tracer struct {
	t0    time.Time
	day   int // slots in the workload's day: a span's phase is Slot mod day
	spans []span
	stack []int
}

func newTracer(daySlots int) *tracer { return &tracer{t0: time.Now(), day: daySlots} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, slot int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Slot: slot, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span (which must be the innermost open one).
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// floorUS is the quiet-box duration of the named span, in µs: the
// shortest span of each phase of the day (see floors in slots.go),
// averaged over the phases that have one.
func (t *tracer) floorUS(name string) float64 {
	var f floors
	for i := range t.spans {
		if sp := &t.spans[i]; sp.Name == name {
			f.add(lap{sp.Slot % t.day, time.Duration(sp.End - sp.Start)})
		}
	}
	phases := 0
	for _, n := range f.repeats {
		if n > 0 {
			phases++
		}
	}
	if phases == 0 {
		return 0
	}
	return f.sumMS() / float64(phases) * 1e3
}

// selfTimes returns each span's self time: its duration minus the part
// its direct children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].End - t.spans[i].Start
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].End - t.spans[i].Start
		}
	}
	return self
}

// selfSumRatio is Σ self time over the trees rooted at spans with the
// name, divided by Σ of those roots' durations — the acceptance check
// that the per-layer breakdown accounts for the whole traced commit.
func (t *tracer) selfSumRatio(root string) float64 {
	self := t.selfTimes()
	inTree := make([]bool, len(t.spans))
	var selfSum, rootSum int64
	for i := range t.spans { // parents precede children
		sp := &t.spans[i]
		switch {
		case sp.Parent < 0 && sp.Name == root:
			inTree[i] = true
			rootSum += sp.End - sp.Start
		case sp.Parent >= 0:
			inTree[i] = inTree[sp.Parent]
		}
		if inTree[i] {
			selfSum += self[i]
		}
	}
	if rootSum == 0 {
		return 0
	}
	return float64(selfSum) / float64(rootSum)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
