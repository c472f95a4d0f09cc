package lp

import (
	"math"
	"testing"
)

// stampFixtures are the in-place tests' LP on each kernel.
var stampFixtures = []struct {
	name       string
	rows, cols int
}{{"dense-30x70", 30, 70}, {"sparse-90x200", 90, 200}}

// TestRefreshedInPlaceSolvesHot: the model a Solver factorized last,
// handed back with only SetObjective and SetRHS applied, is re-solved on
// the hot rung — the structure stamp says nothing the kernel copied has
// moved — and to the optimum a cold solve of a fresh copy finds.
func TestRefreshedInPlaceSolvesHot(t *testing.T) {
	for _, fx := range stampFixtures {
		t.Run(fx.name, func(t *testing.T) {
			m := packingLP(51, fx.rows, fx.cols)
			var s Solver
			if _, err := s.SolveWarm(m, nil, Options{}); err != nil {
				t.Fatal(err)
			}
			for step, d := range []float64{0.05, -0.04, 0.11} {
				fresh := driftRHS(packingLP(51, fx.rows, fx.cols), d)
				res, err := s.SolveWarm(copyNumbers(m, fresh), nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if out := s.LastOutcome(); out.Path != "hot" || out.Sparse != (fx.rows >= sparseMinRows) {
					t.Fatalf("step %d: outcome %+v, want a hot re-solve", step, out)
				}
				requireMatchesCold(t, fresh, res)
			}
		})
	}
}

// TestRefilledInPlaceIsNotHot is the aliasing bug the stamp exists to
// prevent: the retained kernel's model refilled under it — Reset and built
// again, identically or not, or grown by a row, or turned around — is the
// same object and would compare equal to itself, while the kernel's matrix
// is a copy of rows that are gone. Every such edit moves the stamp, so the
// solve starts over, and answers for the model as it now is.
func TestRefilledInPlaceIsNotHot(t *testing.T) {
	edits := []struct {
		name string
		edit func(m *Model, rows, cols int)
	}{
		{"refilled identically", func(m *Model, rows, cols int) { packingInto(m, 61, rows, cols) }},
		{"refilled with another matrix", func(m *Model, rows, cols int) { packingInto(m, 62, rows, cols) }},
		{"a row added", func(m *Model, _, _ int) { m.AddConstraint("extra", []Term{{0, 1}, {1, 1}}, LE, 0.5) }},
		{"a column added", func(m *Model, _, _ int) { m.AddVariable("late", -1) }},
		{"direction flipped and back", func(m *Model, _, _ int) { m.SetMinimize(true); m.SetMinimize(false) }},
	}
	for _, fx := range stampFixtures {
		for _, e := range edits {
			t.Run(fx.name+"/"+e.name, func(t *testing.T) {
				m := packingLP(61, fx.rows, fx.cols)
				start := map[bool]string{false: "cold", true: "fresh"}[fx.rows >= sparseMinRows]
				var s Solver
				for i := 0; i < 2; i++ { // a start, then hot: the kernel is retained
					if _, err := s.SolveWarm(m, nil, Options{}); err != nil {
						t.Fatal(err)
					}
				}
				if out := s.LastOutcome(); out.Path != "hot" {
					t.Fatalf("fixture: untouched model re-solved by %q, want hot", out.Path)
				}
				e.edit(m, fx.rows, fx.cols)
				res, err := s.SolveWarm(m, nil, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if out := s.LastOutcome(); out.Path != start {
					t.Fatalf("outcome %+v: a refilled model must start over (%s)", out, start)
				}
				requireMatchesCold(t, m, res)
				// And the chain is hot again on the refilled model.
				if _, err := s.SolveWarm(m, nil, Options{}); err != nil || s.LastOutcome().Path != "hot" {
					t.Fatalf("after the start: err %v, path %q, want hot", err, s.LastOutcome().Path)
				}
			})
		}
	}
}

// TestStaleRearmMatchesFreshImport: at the drift bound the sparse kernel
// refactorizes in place, and the basic solution that leaves it with is the
// one a fresh crash of the same basis, in the same order, computes for the
// new right-hand sides — to the bit.
func TestStaleRearmMatchesFreshImport(t *testing.T) {
	m := packingLP(71, 90, 200)
	var s Solver
	if _, err := s.SolveWarm(m, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	k := s.ws.k.(*sparseSolve)
	basis := append([]int(nil), k.basis...)
	next := driftRHS(packingLP(71, 90, 200), 0.02)
	if !k.rearm(next, Options{}, true) {
		t.Fatal("stale re-arm refused")
	}
	fresh := newSparseSolveIn(next, Options{}, nil)
	if !fresh.crash(basis) {
		t.Fatal("fresh crash failed")
	}
	for i := range fresh.xB {
		if fresh.basis[i] != k.basis[i] || math.Float64bits(fresh.xB[i]) != math.Float64bits(k.xB[i]) {
			t.Fatalf("position %d: stale re-arm holds column %d at %v, a fresh crash column %d at %v", i, k.basis[i], k.xB[i], fresh.basis[i], fresh.xB[i])
		}
	}
}
