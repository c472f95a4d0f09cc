package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"profitlb/internal/race"
)

// packingLP is a seeded bounded-and-feasible LP of any size: maximize a
// positive objective over LE capacity rows that cover every column, plus
// a few slack GE floors. From sparseMinRows rows up a plain Solver puts it
// on the sparse kernel.
func packingLP(seed int64, rows, cols int) *Model {
	return packingInto(NewModel(), seed, rows, cols)
}

// packingInto is packingLP refilling m, a model that held something else.
func packingInto(m *Model, seed int64, rows, cols int) *Model {
	rng := rand.New(rand.NewSource(seed))
	m.Reset()
	for c := 0; c < cols; c++ {
		m.AddVariable(fmt.Sprintf("v%d", c), 1+rng.Float64()*9)
	}
	caps := rows - rows/5
	for r := 0; r < caps; r++ {
		var terms []Term
		for c := 0; c < cols; c++ {
			if c%caps == r || rng.Intn(6) == 0 {
				terms = append(terms, Term{Var: c, Coef: 0.5 + rng.Float64()*2})
			}
		}
		m.AddConstraint(fmt.Sprintf("cap%d", r), terms, LE, 10+rng.Float64()*40)
	}
	for r := caps; r < rows; r++ {
		m.AddConstraint(fmt.Sprintf("floor%d", r), []Term{{Var: rng.Intn(cols), Coef: 1}}, GE, 0.01*rng.Float64())
	}
	return m
}

// solved is everything a solve reports, for bit-exact comparison.
type solved struct {
	Res Result
	Out Outcome
}

// snapshot solves m on s — SolveWarm when warm, else SolveFresh — and
// keeps what it reported.
func snapshot(t testing.TB, s *Solver, warm bool, m *Model, opts Options) solved {
	t.Helper()
	solve := s.SolveFresh
	if warm {
		solve = func(m *Model, opts Options) (*Result, error) { return s.SolveWarm(m, nil, opts) }
	}
	res, err := solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return solved{Res: *res, Out: s.LastOutcome()}
}

func requireIdentical(t testing.TB, what string, got, want solved) {
	t.Helper()
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !reflect.DeepEqual(bits(got.Res.X), bits(want.Res.X)) || !reflect.DeepEqual(bits(got.Res.Duals), bits(want.Res.Duals)) ||
		math.Float64bits(got.Res.Objective) != math.Float64bits(want.Res.Objective) {
		t.Fatalf("%s: solution differs from a fresh solver's\n got  %+v\n want %+v", what, got.Res, want.Res)
	}
	if got.Res.Iterations != want.Res.Iterations || got.Out != want.Out {
		t.Fatalf("%s: ran differently from a fresh solver\n got  %d pivots %+v\n want %d pivots %+v", what, got.Res.Iterations, got.Out, want.Res.Iterations, want.Out)
	}
}

// dirty returns a solver whose every workspace has just held other
// problems: a larger and a smaller model on each kernel, a structurally
// different one, a cold solve and a retained hot chain — dense, sparse and
// dense again across the row rule.
func dirty(t testing.TB) *Solver {
	t.Helper()
	var s Solver
	for _, m := range []*Model{
		packingLP(1, 30, 70), packingLP(2, 90, 200), packingLP(3, 12, 20), packingLP(4, 70, 75),
		buildTransportLP(1, 1), buildBealeDual(), packingLP(5, 66, 150),
	} {
		for _, warm := range []bool{false, true, true} {
			snapshot(t, &s, warm, m, Options{})
		}
	}
	if _, err := s.Solve(packingLP(6, 40, 90), Options{}); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestSolverReuseIsInvisible is the workspace's contract: what a Solver
// held before — bigger, smaller, other kernel — leaves no trace in the
// next solve. Each model runs on a fresh Solver and on a dirty one, fresh
// (the spare unit's path, twice: a pure function of the model) and warm
// (the hot chain's first solve, its optimum kept), and must agree to the
// bit in X, objective, duals, pivots and outcome. So must a hot chain that
// refreshes one model in place (answered by the structure stamp) and the
// same chain over a new model a step (answered by the sameStructure walk),
// on either solver.
func TestSolverReuseIsInvisible(t *testing.T) {
	cases := []struct {
		name string
		m    func(drift float64) *Model
	}{
		{"dense-30x70", func(d float64) *Model { return driftRHS(packingLP(11, 30, 70), d) }},
		{"sparse-32x70", func(d float64) *Model { return driftRHS(packingLP(15, 32, 70), d) }},
		{"sparse-64x130", func(d float64) *Model { return driftRHS(packingLP(12, 64, 130), d) }},
		{"sparse-120x260", func(d float64) *Model { return driftRHS(packingLP(13, 120, 260), d) }},
		{"dense-31x32", func(d float64) *Model { return driftRHS(packingLP(14, 31, 32), d) }},
		{"transport-eq", func(d float64) *Model { return buildTransportLP(1+d, 1) }},
		{"beale-dual", func(float64) *Model { return buildBealeDual() }},
	}
	used := dirty(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var fresh, freshWarm Solver
			want := snapshot(t, &fresh, false, c.m(0), Options{})
			start := "cold"
			if c.m(0).NumConstraints() >= sparseMinRows {
				start = "fresh"
			}
			if want.Out.Path != start {
				t.Fatalf("fixture starts by %q, want %q", want.Out.Path, start)
			}
			requireIdentical(t, "fresh, dirty solver", snapshot(t, used, false, c.m(0), Options{}), want)
			requireIdentical(t, "fresh, same solver again", snapshot(t, used, false, c.m(0), Options{}), want)
			wantWarm := snapshot(t, &freshWarm, true, c.m(0), Options{})
			requireIdentical(t, "warm, dirty solver", snapshot(t, used, true, c.m(0), Options{}), wantWarm)
			// Three hot chains over the same numbers: a new model a step on
			// a fresh solver, one model refreshed in place on a fresh solver,
			// and one refreshed in place on the dirty solver.
			snapshot(t, used, false, c.m(0), Options{}) // drops its hot state
			var walked, stamped Solver
			held, heldUsed := c.m(0), c.m(0)
			for step, d := range []float64{0, 0.04, -0.03, 0.07} {
				next := driftRHS(c.m(0), d)
				want := snapshot(t, &walked, true, next, Options{})
				if wantPath := []string{start, "hot"}[min(step, 1)]; want.Out.Path != wantPath {
					t.Fatalf("step %d: solved by %q, want %q", step, want.Out.Path, wantPath)
				}
				requireIdentical(t, fmt.Sprintf("step %d in place", step), snapshot(t, &stamped, true, copyNumbers(held, next), Options{}), want)
				requireIdentical(t, fmt.Sprintf("step %d in place, dirty solver", step), snapshot(t, used, true, copyNumbers(heldUsed, next), Options{}), want)
			}
		})
	}
}

// copyNumbers refreshes dst in place with src's objective and right-hand
// sides, the two models sharing a structure.
func copyNumbers(dst, src *Model) *Model {
	for v, c := range src.obj {
		dst.SetObjective(v, c)
	}
	for r := range src.rows {
		dst.SetRHS(r, src.rows[r].rhs)
	}
	return dst
}

// driftRHS scales every rhs of m by 1+d and sways its prices by as much:
// the slot-to-slot drift a hot re-solve has to absorb.
func driftRHS(m *Model, d float64) *Model {
	for i := range m.rows {
		m.rows[i].rhs *= 1 + d
	}
	for c := range m.obj {
		m.obj[c] *= 1 + d*math.Sin(float64(c))
	}
	return m
}

// TestImportPivotsCounted: the crash is on the books. A 3-row model
// covers 3 rows — three columns eliminated by the sparse kernel's
// all-slack fresh start, three full-tableau pivots handing the dense
// kernel its cold optimum on the next call — and says so in
// Outcome.ImportPivots, the same figure on every repeat, beside (not in)
// the pivot counts; a hot re-solve from a kept kernel crashes nothing.
func TestImportPivotsCounted(t *testing.T) {
	build := func(scale float64) *Model {
		m := NewModel()
		x, y := m.AddVariable("x", 3), m.AddVariable("y", 2)
		m.AddConstraint("r0", []Term{{x, 1}, {y, 1}}, LE, 4*scale)
		m.AddConstraint("r1", []Term{{x, 1}, {y, 3}}, LE, 6*scale)
		m.AddConstraint("r2", []Term{{x, 1}}, GE, 1*scale)
		return m
	}
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			var s *Solver
			var first Outcome
			for i := 0; i < 3; i++ {
				s = kn.solver()
				res, err := s.SolveWarm(build(1), nil, Options{})
				if err == nil && !kn.sparse { // the dense start is cold
					res, err = s.SolveWarm(build(1), nil, Options{})
				}
				if err != nil {
					t.Fatal(err)
				}
				out := s.LastOutcome()
				if out.Path != map[bool]string{false: "hot", true: "fresh"}[kn.sparse] || out.Sparse != kn.sparse || out.ImportPivots != 3 {
					t.Fatalf("solve %d: outcome %+v, want 3 crash pivots", i, out)
				}
				if out.WarmPivots != res.Iterations || out.ColdPivots != 0 || out.AbandonedPivots != 0 {
					t.Fatalf("solve %d: crash pivots leaked into %+v (%d iterations)", i, out, res.Iterations)
				}
				if i == 0 {
					first = out
				} else if out != first {
					t.Fatalf("solve %d ran as %+v, solve 0 as %+v", i, out, first)
				}
			}
			for i := 0; i < 2; i++ {
				if _, err := s.SolveWarm(build(1+0.1*float64(i)), nil, Options{}); err != nil {
					t.Fatal(err)
				}
			}
			if out := s.LastOutcome(); out.Path != "hot" || out.ImportPivots != 0 {
				t.Fatalf("hot re-solve: outcome %+v, want no import pivots", out)
			}
		})
	}
}

// TestSeededSolveAllocs is the workspace's budget: in steady state a fresh
// solve on a reused Solver — the spare unit's — allocates its Result — the
// struct, X and Duals — and nothing else, on either start: the dense cold
// simplex and the LU kernel's all-slack crash.
func TestSeededSolveAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector moves allocations to the heap")
	}
	for _, c := range []struct {
		name       string
		rows, cols int
	}{{"dense-30x70", 30, 70}, {"sparse-90x200", 90, 200}} {
		m := packingLP(31, c.rows, c.cols)
		var s Solver
		solve := func() {
			if _, err := s.SolveFresh(m, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // the slabs settle at their size
			solve()
		}
		sparse := c.rows >= sparseMinRows
		if out := s.LastOutcome(); out.Path != map[bool]string{false: "cold", true: "fresh"}[sparse] || out.Sparse != sparse || out.WarmPivots+out.ColdPivots == 0 {
			t.Fatalf("%s: outcome %+v, want a fresh start that pivots", c.name, out)
		}
		if got := testing.AllocsPerRun(20, solve); got != 3 {
			t.Errorf("%s: %v allocations a steady-state fresh solve, want 3 (Result, X, Duals)", c.name, got)
		}
	}
}
