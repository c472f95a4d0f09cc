package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
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

// seedFor is the optimal basis of a perturbed sibling of m, which is what
// the planner imports: mostly right, not quite.
func seedFor(t testing.TB, sibling *Model) *Basis {
	t.Helper()
	var s Solver
	if _, err := s.Solve(sibling, Options{}); err != nil {
		t.Fatal(err)
	}
	b, ok := s.ExportBasis()
	if !ok {
		t.Fatal("export failed")
	}
	return b
}

// solved is everything a solve reports, for bit-exact comparison.
type solved struct {
	Res     Result
	Out     Outcome
	Vars    []string
	Slacks  []string
	HasSeed bool
}

func snapshot(t testing.TB, s *Solver, solve func(*Model, *Basis, Options) (*Result, error), m *Model, seed *Basis, opts Options) solved {
	t.Helper()
	res, err := solve(m, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := solved{Res: *res, Out: s.LastOutcome()}
	if b, ok := s.ExportBasis(); ok {
		snap.Vars, snap.Slacks, snap.HasSeed = b.vars, b.slackRows, true
	}
	return snap
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
	if got.HasSeed != want.HasSeed || !reflect.DeepEqual(got.Vars, want.Vars) || !reflect.DeepEqual(got.Slacks, want.Slacks) {
		t.Fatalf("%s: exported basis differs from a fresh solver's", what)
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
		seed := seedFor(t, m)
		for _, solve := range []func(*Model, *Basis, Options) (*Result, error){s.SolveSeeded, s.SolveWarm, s.SolveWarm} {
			if _, err := solve(m, seed, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Solve(packingLP(6, 40, 90), Options{}); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestSolverReuseIsInvisible is the workspace's contract: what a Solver
// held before — bigger, smaller, other kernel — leaves no trace in the
// next solve. Each (model, seed) runs on a fresh Solver and on a dirty
// one, seeded (the spare unit's path) and warm (the hot chain's first import),
// and must agree to the bit in X, objective, duals, pivots, outcome and
// exported basis. So must a hot chain that refreshes one model in place
// (answered by the structure stamp) and the same chain over a new model a
// step (answered by the sameStructure walk), on either solver.
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
			seed := seedFor(t, c.m(0.3))
			var fresh, freshWarm Solver
			want := snapshot(t, &fresh, fresh.SolveSeeded, c.m(0), seed, Options{})
			if want.Out.Path != "import" {
				t.Fatalf("fixture solves by %q, want an import", want.Out.Path)
			}
			requireIdentical(t, "seeded, dirty solver", snapshot(t, used, used.SolveSeeded, c.m(0), seed, Options{}), want)
			requireIdentical(t, "seeded, same solver again", snapshot(t, used, used.SolveSeeded, c.m(0), seed, Options{}), want)
			wantWarm := snapshot(t, &freshWarm, freshWarm.SolveWarm, c.m(0), seed, Options{})
			requireIdentical(t, "warm, dirty solver", snapshot(t, used, used.SolveWarm, c.m(0), seed, Options{}), wantWarm)
			// Three hot chains over the same numbers: a new model a step on
			// a fresh solver, one model refreshed in place on a fresh solver,
			// and one refreshed in place on the dirty solver.
			if _, err := used.SolveSeeded(c.m(0), seed, Options{}); err != nil { // drops its hot state
				t.Fatal(err)
			}
			var walked, stamped Solver
			held, heldUsed := c.m(0), c.m(0)
			for step, d := range []float64{0, 0.04, -0.03, 0.07} {
				next := driftRHS(c.m(0), d)
				want := snapshot(t, &walked, walked.SolveWarm, next, seed, Options{})
				if wantPath := []string{"import", "hot"}[min(step, 1)]; want.Out.Path != wantPath {
					t.Fatalf("step %d: solved by %q, want %q", step, want.Out.Path, wantPath)
				}
				requireIdentical(t, fmt.Sprintf("step %d in place", step), snapshot(t, &stamped, stamped.SolveWarm, copyNumbers(held, next), seed, Options{}), want)
				requireIdentical(t, fmt.Sprintf("step %d in place, dirty solver", step), snapshot(t, used, used.SolveWarm, copyNumbers(heldUsed, next), seed, Options{}), want)
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
// the slot-to-slot drift a seed from the sibling model has to absorb.
func driftRHS(m *Model, d float64) *Model {
	for i := range m.rows {
		m.rows[i].rhs *= 1 + d
	}
	for c := range m.obj {
		m.obj[c] *= 1 + d*math.Sin(float64(c))
	}
	return m
}

// membersByMap is importBasis's seed resolution as both kernels spelled
// it before the basis indexed itself: two maps over the model's names per
// solve. The reference for which columns a seed names, and in what order.
func membersByMap(b *Basis, m *Model, rowSlack []int) []int {
	varIdx := make(map[string]int, len(m.names))
	for i, name := range m.names {
		varIdx[name] = i
	}
	rowIdx := make(map[string]int, len(m.rows))
	for i := range m.rows {
		rowIdx[m.rows[i].name] = i
	}
	var cols []int
	for _, name := range b.vars {
		if c, ok := varIdx[name]; ok {
			cols = append(cols, c)
		}
	}
	for _, name := range b.slackRows {
		if r, ok := rowIdx[name]; ok {
			if c := rowSlack[r]; c >= 0 {
				cols = append(cols, c)
			}
		}
	}
	return cols
}

// TestSeedResolution pins the one seed resolver: members in seed order,
// unknown names and slackless rows skipped, a name the seed repeats
// yielding its column each time, a name the model repeats resolving to
// its last bearer — the literal list is what the map-based import
// resolved at the commit before the change — and agreement with the map
// reference over random seeds, on a scratch buffer reused throughout.
func TestSeedResolution(t *testing.T) {
	m := NewModel()
	for _, name := range []string{"a", "b", "c", "b", "d"} { // "b" twice: column 3 wins
		m.AddVariable(name, 1)
	}
	m.AddConstraint("r0", []Term{{0, 1}}, LE, 1)
	m.AddConstraint("eq", []Term{{1, 1}}, EQ, 1) // no slack
	m.AddConstraint("r2", []Term{{2, 1}}, GE, 1)
	m.AddConstraint("r0", []Term{{4, 1}}, LE, 1) // "r0" twice: row 3 wins
	k := newWarmTableauIn(m, Options{}, nil)
	seed := NewBasis(
		[]string{"d", "nope", "b", "a", "d", "b"},
		[]string{"r2", "eq", "ghost", "r0", "r2", "a"},
	)
	want := []int{4, 3, 0, 4, 3, 6, 7, 6}
	var buf []int
	got, buf := seed.members(m, k.rowSlack, buf)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(membersByMap(seed, m, k.rowSlack), want) {
		t.Fatalf("members %v, map reference %v, want %v", got, membersByMap(seed, m, k.rowSlack), want)
	}
	if cols, _ := (*Basis)(nil).members(m, k.rowSlack, nil); len(cols) != 0 {
		t.Fatalf("nil seed resolved to %v", cols)
	}

	rng := rand.New(rand.NewSource(5))
	big := packingLP(21, 40, 90)
	bk := newSparseSolveIn(big, Options{}, nil)
	pick := func(n int, known func(int) string) []string {
		out := make([]string, n)
		for i := range out {
			if out[i] = known(rng.Intn(120)); rng.Intn(5) == 0 && i > 0 {
				out[i] = out[rng.Intn(i)]
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		s := NewBasis(
			pick(rng.Intn(60), func(i int) string { return fmt.Sprintf("v%d", i) }),
			pick(rng.Intn(60), func(i int) string { return []string{"cap", "floor", "v"}[i%3] + fmt.Sprint(i/2) }),
		)
		got, buf = s.members(big, bk.rowSlack, buf)
		if want := membersByMap(s, big, bk.rowSlack); !reflect.DeepEqual(append([]int(nil), got...), append([]int(nil), want...)) {
			t.Fatalf("trial %d: members %v, map reference %v", trial, got, want)
		}
	}
}

// TestImportPivotsCounted: the crash is on the books. A seeded solve of a
// 3-row model covers 3 rows — three full-tableau pivots on the dense
// kernel, three columns eliminated on the sparse one — and says so in
// Outcome.ImportPivots, the same figure on every repeat, beside (not in)
// the pivot counts; a hot re-solve crashes nothing.
func TestImportPivotsCounted(t *testing.T) {
	build := func(scale float64) *Model {
		m := NewModel()
		x, y := m.AddVariable("x", 3), m.AddVariable("y", 2)
		m.AddConstraint("r0", []Term{{x, 1}, {y, 1}}, LE, 4*scale)
		m.AddConstraint("r1", []Term{{x, 1}, {y, 3}}, LE, 6*scale)
		m.AddConstraint("r2", []Term{{x, 1}}, GE, 1*scale)
		return m
	}
	seed := NewBasis([]string{"x", "y"}, []string{"r1"})
	for _, kn := range ladderKernels {
		t.Run(kn.name, func(t *testing.T) {
			s := kn.solver()
			var first Outcome
			for i := 0; i < 3; i++ {
				res, err := s.SolveSeeded(build(1), seed, Options{})
				if err != nil {
					t.Fatal(err)
				}
				out := s.LastOutcome()
				if out.Path != "import" || out.Sparse != kn.sparse || out.ImportPivots != 3 {
					t.Fatalf("solve %d: outcome %+v, want a 3-pivot import", i, out)
				}
				if out.WarmPivots != res.Iterations || out.AbandonedPivots != 0 || out.ColdPivots != 0 {
					t.Fatalf("solve %d: crash pivots leaked into %+v (%d iterations)", i, out, res.Iterations)
				}
				if i == 0 {
					first = out
				} else if out != first {
					t.Fatalf("solve %d ran as %+v, solve 0 as %+v", i, out, first)
				}
			}
			for i := 0; i < 2; i++ {
				if _, err := s.SolveWarm(build(1+0.1*float64(i)), seed, Options{}); err != nil {
					t.Fatal(err)
				}
			}
			if out := s.LastOutcome(); out.Path != "hot" || out.ImportPivots != 0 {
				t.Fatalf("hot re-solve: outcome %+v, want no import pivots", out)
			}
		})
	}
}

// TestSeededSolveAllocs is the workspace's budget: in steady state a
// seeded solve on a reused Solver allocates its Result — the struct, X
// and Duals — and nothing else, on either kernel.
func TestSeededSolveAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector moves allocations to the heap")
	}
	for _, c := range []struct {
		name       string
		rows, cols int
	}{{"dense-30x70", 30, 70}, {"sparse-90x200", 90, 200}} {
		m := packingLP(31, c.rows, c.cols)
		seed := seedFor(t, driftRHS(packingLP(31, c.rows, c.cols), 0.3))
		var s Solver
		solve := func() {
			if _, err := s.SolveSeeded(m, seed, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // the slabs settle at their size
			solve()
		}
		if out := s.LastOutcome(); out.Path != "import" || out.Sparse != (c.rows >= sparseMinRows) || out.WarmPivots == 0 {
			t.Fatalf("%s: outcome %+v, want an import that pivots", c.name, out)
		}
		if got := testing.AllocsPerRun(20, solve); got != 3 {
			t.Errorf("%s: %v allocations a steady-state seeded solve, want 3 (Result, X, Duals)", c.name, got)
		}
	}
}

// TestSharedSeedConcurrentImport: a Basis is immutable once built, so
// solvers on different goroutines may import one seed at once, the first
// of them building its index. Eight solvers racing from a cold index must
// all get the fresh answer (run under -race).
func TestSharedSeedConcurrentImport(t *testing.T) {
	for _, c := range []struct{ rows, cols int }{{30, 70}, {90, 200}} {
		m := func() *Model { return packingLP(41, c.rows, c.cols) }
		var fresh Solver
		want := snapshot(t, &fresh, fresh.SolveSeeded, m(), seedFor(t, driftRHS(m(), 0.3)), Options{})
		seed := seedFor(t, driftRHS(m(), 0.3)) // never imported yet
		got := make([]solved, 8)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var s Solver
				res, err := s.SolveSeeded(m(), seed, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = solved{Res: *res, Out: s.LastOutcome()}
			}()
		}
		wg.Wait()
		want.Vars, want.Slacks, want.HasSeed = nil, nil, false
		for w := range got {
			if !t.Failed() {
				requireIdentical(t, fmt.Sprintf("%dx%d worker %d", c.rows, c.cols, w), got[w], want)
			}
		}
	}
}
