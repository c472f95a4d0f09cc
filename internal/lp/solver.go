package lp

import (
	"math"
	"runtime"
	"sync"
	"time"

	"profitlb/internal/linalg"
)

// Basis identifies an optimal basis by name: the basic structural
// variables plus the rows whose slack/surplus variable is basic. Naming
// (rather than indexing) makes a basis portable across related models —
// the planner's memoized subset-LPs share variable and row names, so a
// basis exported from one solve seeds a neighboring solve even when the
// column order differs. A Basis is immutable once built.
type Basis struct {
	vars      []string
	slackRows []string
	// The seed's own index, name → first position in vars (in slackRows),
	// built by the first import: one frozen seed is imported by every
	// subset solve of a slot, while a basis that only ever seeds hot
	// re-solves is never indexed at all.
	index          sync.Once
	varPos, rowPos map[string]int
	repeats        bool // some name occurs twice in vars or in slackRows
}

// NewBasis builds a basis from explicit name lists. It is exposed for
// tests and fuzzing; production code obtains bases from ExportBasis.
func NewBasis(vars, slackRows []string) *Basis {
	names := append(append(make([]string, 0, len(vars)+len(slackRows)), vars...), slackRows...)
	return &Basis{vars: names[:len(vars):len(vars)], slackRows: names[len(vars):]}
}

// members resolves the basis against a model, for both kernels: the
// columns of its members in seed order — a variable's own column, a slack
// row's rowSlack entry. Names the model lacks and rows without a slack
// are skipped; where the model repeats a name its last bearer wins; a
// name the seed repeats yields its column each time. buf is the caller's
// recycled scratch, returned grown; cols is cut from it.
func (b *Basis) members(m *Model, rowSlack []int, buf []int) (cols, _ []int) {
	if b == nil {
		return nil, buf
	}
	b.index.Do(func() { b.varPos, b.rowPos = b.positions(b.vars), b.positions(b.slackRows) })
	nv, n := len(b.vars), b.Size()
	buf = linalg.Resized(buf, 2*n)
	at, cols := buf[:n], buf[n:n]
	for i := range at {
		at[i] = -1
	}
	for c, name := range m.names {
		if p, ok := b.varPos[name]; ok {
			at[p] = c
		}
	}
	for r := range m.rows {
		if p, ok := b.rowPos[m.rows[r].name]; ok {
			at[nv+p] = rowSlack[r]
		}
	}
	for p, name := range b.vars {
		if b.repeats {
			p = b.varPos[name]
		}
		if c := at[p]; c >= 0 {
			cols = append(cols, c)
		}
	}
	for p, name := range b.slackRows {
		if b.repeats {
			p = b.rowPos[name]
		}
		if c := at[nv+p]; c >= 0 {
			cols = append(cols, c)
		}
	}
	return cols, buf
}

// positions maps each name to its first position, noting a repeat.
func (b *Basis) positions(names []string) map[string]int {
	pos := make(map[string]int, len(names))
	for p, name := range names {
		if _, seen := pos[name]; seen {
			b.repeats = true
		} else {
			pos[name] = p
		}
	}
	return pos
}

// emptyBasis sizes a basis for the given basic columns, those below n
// being structural, so exportBasis fills one slab instead of growing two.
func emptyBasis(basic []int, n int) *Basis {
	nv := 0
	for _, c := range basic {
		if c >= 0 && c < n {
			nv++
		}
	}
	names := make([]string, len(basic))
	return &Basis{vars: names[:0:nv], slackRows: names[nv:nv]}
}

// Size returns the number of named basis members.
func (b *Basis) Size() int {
	if b == nil {
		return 0
	}
	return len(b.vars) + len(b.slackRows)
}

// Outcome describes how the most recent solve on a Solver ran.
type Outcome struct {
	// Path is "hot" (retained tableau or factors, rhs refresh), "import"
	// (seed basis crashed into a fresh warm state) or "cold" (two-phase
	// simplex).
	Path string
	// Sparse reports that the warm path ran the sparse revised simplex
	// rather than the dense warm tableau.
	Sparse bool
	// FellBack reports that a warm attempt was abandoned for the cold
	// path (singular import, infeasible repair, drift guard, limits).
	FellBack bool
	// WarmPivots and ColdPivots count simplex pivots spent on the
	// respective path during this solve.
	WarmPivots int
	ColdPivots int
	// AbandonedPivots counts pivots spent on warm attempts that were
	// abandoned mid-way during this solve; without it the cost of a
	// fallback would vanish from the accounting.
	AbandonedPivots int
	// ImportPivots counts the work of crashing a basis, which none of the
	// three above includes: the dense kernel's full-tableau pivots that
	// bring the seed's members (then slacks) into the basis, the sparse
	// kernel's columns eliminated into its LU factors by the crash. An
	// abandoned attempt's are counted too; a hot re-solve's is 0.
	ImportPivots int
	// Refactors counts the times the sparse kernel rebuilt its factors from
	// the basis in place during this solve — a full eta file, or a hot
	// re-solve at the drift bound — each a basis' worth of eliminated
	// columns on a path that otherwise reads as hot.
	Refactors int
}

// Solver runs successive LP solves while retaining every kernel's
// workspace (a steady-state solve allocates only its Result) and, via
// SolveWarm, the factorized final state of the previous solve (hot
// re-solves). See DESIGN.md §12. The zero value is ready to use.
//
// A Solver is not safe for concurrent use; the planner keeps one for its
// hot chain and one for every other solve of a slot.
type Solver struct {
	cold   tableau     // the cold two-phase path's
	warm   tableau     // the dense warm kernel, rebuilt in place per import
	sparse sparseSolve // the sparse warm kernel, likewise
	ws     retained
	last   kernel // final state of the most recent Optimal solve, for ExportBasis
	out    Outcome
	// yielded is when the solver last gave up the processor (see breathe).
	yielded time.Time
	// minRows, when positive, stands in for sparseMinRows: the seam this
	// package's tests put one LP through both kernels by. Nothing outside
	// the package can select a kernel.
	minRows int
}

// kernel is what the warm ladder needs from a simplex implementation.
// Two exist: the dense marker-block *tableau, whose marker columns hold
// B⁻¹, and the LU-factorized revised simplex *sparseSolve. The ladder
// crosses this interface a handful of times per solve, never per pivot.
type kernel interface {
	// model is the model the kernel currently solves.
	model() *Model
	// rearm points a finished kernel at a model of the same structure and
	// refreshes the basic solution for its rhs through the retained
	// factorization; the previous costs stay in place for the dual repair.
	// stale reports that the drift bound maxHotUses is reached: the dense
	// kernel then refuses (false — the ladder drops it and re-imports),
	// the sparse one refactorizes in place.
	rearm(m *Model, opts Options, stale bool) bool
	// importBasis crashes a named seed into a freshly built kernel, whose
	// costs are still zero; false means no complete basis emerged.
	importBasis(seed *Basis) bool
	// dualIterate repairs primal feasibility under the costs in place,
	// priceIn loads the model's true costs, primalIterate finishes.
	dualIterate() Status
	priceIn()
	primalIterate() Status
	extract() []float64
	duals() []float64
	pivots() int
	// crashWork is what pivots leaves out: the pivots importBasis spent and
	// how many times the kernel has refactorized since it was armed.
	crashWork() (crashed, refactors int)
	// exportBasis names the final basis; false when it is not
	// representable (an artificial still basic on the cold tableau).
	exportBasis() (*Basis, bool)
}

// retained is the hot state kept between SolveWarm calls: the final
// kernel of the previous warm solve, its model's structure stamp as of that
// solve, and how many hot re-solves reused it.
type retained struct {
	k     kernel
	uses  int
	stamp uint64
}

// fits reports whether the retained kernel's factorization applies to m.
// The model it solved last, handed back, answers by its stamp: refreshed in
// place (SetObjective, SetRHS) it fits, refilled — even identically — it
// does not, the kernel's matrix being a copy of rows that are gone. Any
// other model is walked.
func (w *retained) fits(m *Model) bool {
	if w.k == nil {
		return false
	}
	if held := w.k.model(); held != m {
		return sameStructure(held, m)
	}
	return w.stamp == m.stamp
}

// maxHotUses bounds how many consecutive hot re-solves may reuse one
// factorization before forcing a fresh one, so floating-point drift
// cannot accumulate without bound.
const maxHotUses = 200

// Solve runs the cold two-phase simplex, reusing the solver's arena. The
// result is bit-identical to (*Model).SolveOpts.
func (s *Solver) Solve(m *Model, opts Options) (*Result, error) {
	s.out, s.last = Outcome{}, nil
	return s.solveCold(m, opts)
}

// SolveWarm solves m using every warm path available, in order: a hot
// re-solve on the retained kernel when the constraint matrix is unchanged
// (only rhs and objective may differ — the cross-slot case), an import of
// the seed basis otherwise, and the cold two-phase path as the
// correctness anchor whenever a warm attempt fails. A warm result is
// accepted only at status Optimal and after the model re-verifies the
// solution, so correctness never depends on the warm path.
//
// The kernel is chosen from the row count: from sparseMinRows rows up the
// warm paths run the sparse revised simplex, below it the dense warm
// tableau; the cold anchor is dense either way.
func (s *Solver) SolveWarm(m *Model, seed *Basis, opts Options) (*Result, error) {
	return s.solve(m, seed, opts, true)
}

// SolveSeeded solves m from an optional seed basis without consulting or
// keeping any cross-call retained state, so the result is a pure function
// of (model, seed, opts). The planner's memo cache relies on that purity
// (DESIGN.md §7): an entry keyed by (subset, seed) is what any solve of
// that subset from that seed would have produced, whatever the solver did
// before.
func (s *Solver) SolveSeeded(m *Model, seed *Basis, opts Options) (*Result, error) {
	return s.solve(m, seed, opts, false)
}

// solve is the warm ladder — hot, import, audited cold — behind SolveWarm
// (keep) and SolveSeeded (!keep).
func (s *Solver) solve(m *Model, seed *Basis, opts Options, keep bool) (*Result, error) {
	s.breathe()
	s.out, s.last = Outcome{}, nil
	minRows := sparseMinRows
	if s.minRows > 0 {
		minRows = s.minRows
	}
	sparse := len(m.rows) >= minRows
	opts = opts.withDefaults(len(m.rows), len(m.names))
	if !keep {
		s.ws = retained{}
	}
	attempted := false
	if k := s.ws.k; s.ws.fits(m) {
		attempted = true
		stale := s.ws.uses >= maxHotUses
		if res := s.attempt(k, k.rearm(m, opts, stale), opts.Tol); res != nil {
			if stale {
				s.ws.uses = 0
			}
			s.ws.uses++
			s.ws.stamp = m.stamp
			s.out.Path, s.out.Sparse = "hot", sparse
			return res, nil
		}
	}
	// The dense kernel refuses an empty seed (there is nothing to crash,
	// and that is no failed attempt); the sparse one crashes all-slack.
	var k kernel
	if sparse {
		k = newSparseSolveIn(m, opts, &s.sparse)
	} else if seed.Size() > 0 {
		k = newWarmTableauIn(m, opts, &s.warm)
	}
	if k != nil {
		attempted = true
		s.ws = retained{} // the build reused the retained kernel's workspace
		if res := s.attempt(k, k.importBasis(seed), opts.Tol); res != nil {
			if keep {
				s.ws = retained{k: k, stamp: m.stamp}
			}
			s.out.Path, s.out.Sparse = "import", sparse
			return res, nil
		}
	}
	if attempted {
		s.out.FellBack = true
	}
	return s.solveCold(m, opts)
}

// breathe yields the processor if this solver has not for a millisecond
// of solving. A warm solve allocates nothing until its Result, so a
// goroutine that solves LP after LP never assists the collector and never
// enters the scheduler — and on a small machine the collector's
// fractional mark worker runs only when the P schedules. Left to the
// 10 ms forced preemption, mark phases on fleet-large stretched from 2 ms
// to 7–20 ms while the heap overshot its goal (peak RSS 23 → 32 MB). A
// yield wakes an idle P (~8 µs), so it is rationed by time, not taken per
// solve: 150 small solves a refine slot would pay over a millisecond.
//
// A solver's first solve only starts the clock: a goroutine that has not
// been solving has not been silent, and a planner's first slot is set-up,
// where a yield hands the P to a collector busy with the construction
// garbage (fleet-large setup_s 0.135 → 0.160 s).
func (s *Solver) breathe() {
	now := time.Now()
	if s.yielded.IsZero() || now.Sub(s.yielded) > time.Millisecond {
		if !s.yielded.IsZero() {
			runtime.Gosched()
		}
		s.yielded = now
	}
}

// attempt drives a re-armed or freshly crashed kernel to optimality: the
// dual simplex under the costs already in place (the previous solve's on
// the hot path, still dual feasible; all-zero after a crash, trivially
// so) repairs primal feasibility, then the true costs are priced in and
// primal pivots finish. The claim is audited — the solution must
// re-verify against the model within a tolerance proportional to the rhs
// scale — and any failure, a kernel that could not be armed included,
// books the pivots burned, drops the retained state and returns nil so
// the ladder steps down.
func (s *Solver) attempt(k kernel, armed bool, tol float64) *Result {
	defer s.bookCrash(k)
	if armed && k.dualIterate() == Optimal {
		k.priceIn()
		if k.primalIterate() == Optimal {
			m, x := k.model(), k.extract()
			if m.CheckFeasible(x, auditTol(m, tol)) == nil {
				s.out.WarmPivots = k.pivots()
				s.last = k
				return &Result{
					Status:     Optimal,
					Objective:  m.ObjectiveValue(x),
					X:          x,
					Duals:      k.duals(),
					Iterations: k.pivots(),
					Warm:       true,
				}
			}
		}
	}
	s.out.AbandonedPivots += k.pivots()
	s.ws = retained{}
	return nil
}

// bookCrash books an attempt's basis-crash and refactorization work,
// accepted or abandoned.
func (s *Solver) bookCrash(k kernel) {
	crashed, refactors := k.crashWork()
	s.out.ImportPivots += crashed
	s.out.Refactors += refactors
}

// LastOutcome reports how the most recent solve ran.
func (s *Solver) LastOutcome() Outcome { return s.out }

// ExportBasis returns the final basis of the immediately preceding solve
// on this Solver, by name. It fails when that solve did not end Optimal
// or when an artificial variable is still basic (degenerate redundant
// rows), in which case the caller keeps its previous seed. The basis is
// only meaningful until the next solve on this Solver.
func (s *Solver) ExportBasis() (*Basis, bool) {
	if s.last == nil {
		return nil, false
	}
	return s.last.exportBasis()
}

func (s *Solver) solveCold(m *Model, opts Options) (*Result, error) {
	t := newTableauIn(m, opts, &s.cold)
	st := t.run()
	s.out.Path, s.out.ColdPivots = "cold", t.iters
	if st == Optimal {
		s.last = t
	}
	return t.result(st)
}

// warmFeasFactor scales the solver tolerance (per unit of rhs magnitude)
// for the post-solve feasibility audits (warm results and cold Optimal
// claims alike).
const warmFeasFactor = 100

// auditTol is the rhs-scaled feasibility tolerance shared by the warm
// accept gate and the cold-path Optimal audit.
func auditTol(m *Model, tol float64) float64 {
	scale := 1.0
	for i := range m.rows {
		if a := math.Abs(m.rows[i].rhs); a > scale {
			scale = a
		}
	}
	return tol * warmFeasFactor * scale
}

// sameStructure reports whether two models share variable names, senses
// and constraint coefficients exactly — the condition under which a
// retained tableau's marker block (B⁻¹) applies to the new model. Only
// the rhs vector and objective coefficients may differ. It is the answer
// for two distinct models (see retained.fits).
func sameStructure(a, b *Model) bool {
	if a == nil || b == nil || a.minimize != b.minimize ||
		len(a.names) != len(b.names) || len(a.rows) != len(b.rows) {
		return false
	}
	for i, n := range a.names {
		if b.names[i] != n {
			return false
		}
	}
	for i := range a.rows {
		ra, rb := &a.rows[i], &b.rows[i]
		if ra.sense != rb.sense || len(ra.terms) != len(rb.terms) {
			return false
		}
		for j, term := range ra.terms {
			if rb.terms[j] != term {
				return false
			}
		}
	}
	return true
}

// newWarmTableauIn builds the warm-layout tableau: rows kept unflipped,
// one slack/surplus column per inequality row, no artificials, and a full
// identity "marker" block — one zero-cost column per row that is never
// eligible to enter the basis. After any pivot sequence the marker block
// holds B⁻¹, which powers the hot rhs refresh and uniform dual recovery
// (y_r = dir·z[marker_r]).
func newWarmTableauIn(m *Model, opts Options, t *tableau) *tableau {
	t = t.reset(m, opts)
	rows, n := len(m.rows), t.n
	slacks := 0
	for i := range m.rows {
		if m.rows[i].sense != EQ {
			slacks++
		}
	}
	t.artStart = n + slacks
	t.colLimit = t.artStart
	t.total = t.artStart + rows
	t.alloc(rows)
	t.z = zeroed(t.z, t.total+1)
	slackCol := n
	for i := range m.rows {
		row := &m.rows[i]
		r := t.a.Row(i)
		t.rowSlack[i] = -1
		for _, term := range row.terms {
			r[term.Var] += term.Coef
		}
		r[t.total] = row.rhs
		switch row.sense {
		case LE:
			r[slackCol] = 1
			t.rowSlack[i] = slackCol
			slackCol++
		case GE:
			r[slackCol] = -1
			t.rowSlack[i] = slackCol
			slackCol++
		}
		r[t.artStart+i] = 1
		t.dualCol[i], t.dualSign[i] = t.artStart+i, 1
		t.basis[i] = -1 // assigned by importBasis
	}
	return t
}

func (t *tableau) model() *Model { return t.m }

func (t *tableau) pivots() int { return t.iters }

func (t *tableau) crashWork() (crashed, refactors int) { return t.crashed, 0 }

func (t *tableau) priceIn() { t.setPhase2Z() }

func (t *tableau) primalIterate() Status { return t.iterate() }

// rearm is the dense hot path's whole trick: the marker block (B⁻¹) turns
// the new rhs into the new basic solution in O(rows²) with no
// refactorization. A stale tableau is refused — its drift is shed by
// re-importing into a fresh one.
func (t *tableau) rearm(m *Model, opts Options, stale bool) bool {
	t.iters, t.crashed = 0, 0
	if stale {
		return false
	}
	t.m = m
	t.opts = opts.withDefaults(t.a.Rows, t.n)
	t.refreshRHS()
	return true
}

// exportBasis names the basic columns. A cold tableau may still hold an
// artificial in the basis (degenerate redundant rows): not representable.
func (t *tableau) exportBasis() (*Basis, bool) {
	slackOwner := make([]int, t.artStart-t.n)
	for i := range slackOwner {
		slackOwner[i] = -1
	}
	for r, c := range t.rowSlack {
		if c >= 0 {
			slackOwner[c-t.n] = r
		}
	}
	b := emptyBasis(t.basis, t.n)
	for _, c := range t.basis {
		switch {
		case c >= 0 && c < t.n:
			b.vars = append(b.vars, t.m.names[c])
		case c >= t.n && c < t.artStart && slackOwner[c-t.n] >= 0:
			b.slackRows = append(b.slackRows, t.m.rows[slackOwner[c-t.n]].name)
		default:
			return nil, false
		}
	}
	return b, true
}

// importPivTol is the minimum pivot magnitude accepted while crashing a
// named basis; anything smaller is treated as singular.
const importPivTol = 1e-7

// importBasis pivots the named basis members into the warm tableau.
// Unknown names and columns that turn out linearly dependent are dropped;
// rows left uncovered fall back to their own slack. It returns false —
// leaving the caller to go cold — when a row cannot be covered at all
// (uncovered EQ row, or a singular slack pivot).
func (t *tableau) importBasis(b *Basis) bool {
	var cols []int
	cols, t.seed = b.members(t.m, t.rowSlack, t.seed)
	for _, c := range cols {
		best, bestAbs := -1, importPivTol
		for r := 0; r < t.a.Rows; r++ {
			if t.basis[r] >= 0 {
				continue
			}
			if a := math.Abs(t.a.At(r, c)); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 {
			continue // dependent on columns already imported: drop it
		}
		t.pivot(best, c)
		t.crashed++
	}
	for r := 0; r < t.a.Rows; r++ {
		if t.basis[r] >= 0 {
			continue
		}
		c := t.rowSlack[r]
		if c < 0 || math.Abs(t.a.At(r, c)) <= importPivTol {
			return false
		}
		t.pivot(r, c)
		t.crashed++
	}
	return true
}

// refreshRHS recomputes the basic solution for the model's current rhs
// vector through the marker block: rhs column ← B⁻¹·b. O(rows²), no
// refactorization — this is the hot path's whole trick.
func (t *tableau) refreshRHS() {
	rows := t.a.Rows
	t.rhs = zeroed(t.rhs, rows)
	scratch := t.rhs
	for i := 0; i < rows; i++ {
		r := t.a.Row(i)
		var sum float64
		for j := 0; j < rows; j++ {
			sum += r[t.artStart+j] * t.m.rows[j].rhs
		}
		scratch[i] = sum
	}
	for i := 0; i < rows; i++ {
		t.a.Set(i, t.total, scratch[i])
	}
}

// dualIterate runs the dual simplex on the current reduced-cost row,
// which must be dual feasible (z ≥ 0 over enterable columns): it drives
// negative basic values out while preserving dual feasibility — exactly
// the repair needed after an rhs perturbation. Returns Optimal when the
// rhs is non-negative, Infeasible when a negative row has no eligible
// entering column (a primal infeasibility certificate, which callers
// re-confirm via the cold path), or IterationLimit.
//
// Like the primal iterate, it starts on Dantzig-style pricing (most
// negative basic value, minimum ratio) and switches to Bland's
// smallest-index rule — smallest basic column among the violating rows,
// smallest entering column among the ratio minimizers — after stalling,
// so a dual-degenerate rhs perturbation cannot cycle the hot path into
// its MaxIterations budget. The objective value in the z row's rhs cell
// is the progress measure: dual pivots only ever decrease it, and a long
// run without decrease is the cycling signature.
func (t *tableau) dualIterate() Status {
	tol := t.opts.Tol
	rhs := t.total
	bland := t.opts.Bland
	stall := 0
	lastObj := math.Inf(1)
	for {
		if t.iters >= t.opts.MaxIterations {
			return IterationLimit
		}
		leave := -1
		if bland {
			bestCol := t.total + 1
			for r := 0; r < t.a.Rows; r++ {
				if t.a.At(r, rhs) < -tol && t.basis[r] < bestCol {
					leave, bestCol = r, t.basis[r]
				}
			}
		} else {
			minVal := -tol
			for r := 0; r < t.a.Rows; r++ {
				if v := t.a.At(r, rhs); v < minVal {
					leave, minVal = r, v
				}
			}
		}
		if leave < 0 {
			return Optimal
		}
		row := t.a.Row(leave)
		enter, bestRatio := -1, math.Inf(1)
		for c := 0; c < t.colLimit; c++ {
			a := row[c]
			if a >= -tol {
				continue
			}
			if ratio := t.z[c] / -a; ratio < bestRatio {
				enter, bestRatio = c, ratio
			}
		}
		if enter >= 0 && bland {
			// Smallest-index tie-break among the ratio minimizers.
			edge := bestRatio + tol*(1+math.Abs(bestRatio))
			for c := 0; c < enter; c++ {
				a := row[c]
				if a >= -tol {
					continue
				}
				if t.z[c]/-a <= edge {
					enter = c
					break
				}
			}
		}
		if enter < 0 {
			return Infeasible
		}
		t.pivot(leave, enter)
		t.iters++
		obj := t.z[t.total]
		if obj <= lastObj-tol {
			stall = 0
			lastObj = obj
		} else {
			stall++
			if stall > 64 {
				bland = true
			}
		}
	}
}
