package lp

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRowsOwnTheirTermsOnTheSlab: a builder assembles every row in one
// scratch slice, so AddConstraint must copy — into the model's slab, and
// into a fresh slab when that one is full, with earlier rows keeping
// theirs. Sized by Grow (exactly, short, not at all) the model is the
// same, and a sized build allocates no slab per row.
func TestRowsOwnTheirTermsOnTheSlab(t *testing.T) {
	const vars, rows = 40, 300
	build := func(grow func(m *Model)) *Model {
		m := NewModel()
		grow(m)
		for v := 0; v < vars; v++ {
			m.AddVariable(fmt.Sprintf("x%d", v), float64(v))
		}
		var scratch []Term
		for r := 0; r < rows; r++ {
			scratch = scratch[:0]
			for j := 0; j <= r%7; j++ {
				scratch = append(scratch, Term{Var: (r + j) % vars, Coef: float64(r + j)})
			}
			m.AddConstraint(fmt.Sprintf("r%d", r), scratch, Sense(r%3), float64(r))
			for j := range scratch {
				scratch[j] = Term{Var: -1, Coef: -1} // the caller's slice is its own again
			}
		}
		return m
	}
	unsized := build(func(*Model) {})
	for r := 0; r < rows; r++ {
		terms, sense, rhs := unsized.RowSpec(r)
		if len(terms) != r%7+1 || sense != Sense(r%3) || rhs != float64(r) || unsized.RowName(r) != fmt.Sprintf("r%d", r) {
			t.Fatalf("row %d came back as %v %v %v %q", r, terms, sense, rhs, unsized.RowName(r))
		}
		for j, term := range terms {
			if want := (Term{Var: (r + j) % vars, Coef: float64(r + j)}); term != want {
				t.Fatalf("row %d term %d is %v, want %v", r, j, term, want)
			}
		}
	}
	for name, grow := range map[string]func(m *Model){
		"exact": func(m *Model) { m.Grow(vars, rows, 4*rows) },
		"short": func(m *Model) { m.Grow(3, 5, 11) },
	} {
		sized := build(grow)
		if !reflect.DeepEqual(sized.rows, unsized.rows) || !reflect.DeepEqual(sized.names, unsized.names) || !reflect.DeepEqual(sized.obj, unsized.obj) {
			t.Fatalf("Grow (%s) changed the model", name)
		}
	}
	m := NewModel()
	m.Grow(1, rows, 2*rows)
	x := m.AddVariable("x", 1)
	row := []Term{{Var: x, Coef: 1}, {Var: x, Coef: 2}}
	if got := testing.AllocsPerRun(rows-1, func() { m.AddConstraint("r", row, LE, 1) }); got != 0 {
		t.Fatalf("AddConstraint on a sized model allocates %v times a row", got)
	}
}
