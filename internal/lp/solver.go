package lp

import (
	"math"
	"runtime"
	"time"

	"profitlb/internal/linalg"
)

// Basis is the type of SolveWarm's second parameter, which is ignored: the
// ladder re-solves a kept kernel or starts over, and reads no basis from
// its caller.
//
// Deprecated: bench/slots.go still passes nil to SolveWarm; ROADMAP item 8
// deletes the parameter and this type with it.
type Basis struct{}

// Outcome describes how the most recent solve on a Solver ran.
type Outcome struct {
	// Path is "hot" (retained tableau or factors, rhs refresh), "trial"
	// (a checkpointed kernel, numbers refreshed: see Trial), "fresh" (the LU
	// kernel started from the all-slack basis: see SolveFresh) or "cold"
	// (two-phase simplex).
	Path string
	// Sparse reports that the warm path ran the sparse revised simplex
	// rather than the dense warm tableau.
	Sparse bool
	// FellBack reports that a warm attempt was abandoned for the cold
	// path (no all-slack basis, infeasible repair, drift guard, limits).
	FellBack bool
	// WarmPivots and ColdPivots count simplex pivots spent on the
	// respective path during this solve.
	WarmPivots int
	ColdPivots int
	// AbandonedPivots counts pivots spent on warm attempts that were
	// abandoned mid-way during this solve; without it the cost of a
	// fallback would vanish from the accounting.
	AbandonedPivots int
	// ImportPivots counts the crash work of a fresh start, which none of
	// the three above includes: the columns the LU kernel's all-slack crash
	// eliminates into its factors, and the crash that hands a kept cold
	// optimum to the warm kernel (see SolveWarm, Checkpoint) — the dense
	// kernel's full-tableau pivots or the sparse one's eliminated columns.
	// An abandoned attempt's are counted too; a hot re-solve from a kept
	// kernel crashes nothing.
	ImportPivots int
	// Refactors counts the times the kernel rebuilt its factors (the dense
	// one: its tableau) from the basis in place during this solve — a full
	// eta file, or a hot re-solve at a drift bound — each a basis' worth of
	// eliminated columns on a path that otherwise reads as hot.
	Refactors int
}

// Solver runs successive LP solves while retaining every kernel's
// workspace and, via SolveWarm, the factorized final state of the previous
// solve (hot re-solves). See DESIGN.md §12. The zero value is ready to
// use. A steady-state solve allocates nothing: the Result a solve returns
// is the solver's, refilled by its next solve (Solve, SolveWarm,
// SolveFresh or Trial), so a caller that keeps one past that copies it
// (Result.Clone).
//
// A Solver is not safe for concurrent use; the planner keeps one for its
// hot chain and one for every other solve of a slot.
type Solver struct {
	cold   tableau     // the cold two-phase path's
	warm   tableau     // the dense warm kernel, rebuilt in place per hand-over
	sparse sparseSolve // the sparse warm kernel, rebuilt per fresh start
	ws     retained
	cp     checkpoint
	last   kernel // final state of the most recent Optimal solve, for Checkpoint
	out    Outcome
	// res is every solve's Result, refilled by the next: a Solver owns the
	// Result it returns until its next solve (DESIGN §12).
	res Result
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
	// stale reports that a drift bound is reached: the kernel then
	// refactorizes in place from its basis, false when that went singular.
	rearm(m *Model, opts Options, stale bool) bool
	// crash brings cols into a freshly built kernel's basis, then slacks
	// into the rows left uncovered — with no cols, the all-slack basis. A
	// column is numbered alike on every layout: structurals first, then
	// one slack per inequality row in row order. A column dependent on
	// those before it is dropped. The costs are still zero after it; false
	// means no complete basis emerged.
	crash(cols []int) bool
	// dualIterate repairs primal feasibility under the costs in place,
	// priceIn loads the model's true costs (false: the kernel broke down
	// doing so), primalIterate finishes. Every
	// iterate of the repair is dual feasible, so where the costs in place
	// are the model's its basic objective caps the optimum (weak duality);
	// above −Inf, cutoff (internal maximization terms) stops the repair
	// with Cutoff as soon as that objective is below it, and bound then
	// reads it.
	dualIterate(cutoff float64) Status
	bound() float64
	priceIn() bool
	primalIterate() Status
	extract(x []float64) []float64
	duals(y []float64) []float64
	pivots() int
	// crashWork is what pivots leaves out: the pivots crash spent and how
	// many times the kernel has refactorized since it was armed.
	crashWork() (crashed, refactors int)
	// save copies what the kernel's pivots change into st and restore
	// copies it back: the state a trial starts from and rolls back to.
	// save refactorizes a long eta file first, restore when st's factors
	// are gone, each reporting in how many refactorizations, and ok false
	// when that failed.
	save(st *state) (refactors int, ok bool)
	restore(st *state) (refactors int, ok bool)
	// relax makes the costs in place dual feasible over the enterable
	// columns by raising any that prices in to zero — a column unfixed
	// since may, having been held out of the kernel's optimality — and
	// reports whether it moved one: then priceIn must load the true costs
	// after the repair.
	relax() bool
}

// state is a kernel's pivoted state, kept for trials. The dense kernel
// keeps its tableau, basis and cost row; the sparse one its basis, basic
// solution, reduced costs, pricing cursor and eta count — its factors are
// the state's own, which a trial reads and never refactorizes.
type state struct {
	a              linalg.Matrix
	basis, inBasis []int
	vals, d        []float64 // dense: the cost row; sparse: xB and d
	etas           linalg.EtaMark
	cursor         int
	factored       int // sparse: the factors' generation the state shares
}

// checkpoint is the state Trial starts from — kernel k's, for model m at
// stamp, under the costs m had when it was kept: home, the state a solve
// left, which the next SolveWarm resumes from, or once a trial's was kept
// (away), st. fresh says k still holds it, no pivot having been made
// since. owed is what taking it cost — its refactorizations, and the
// crash that made a cold final state a kernel — booked by the next solve
// on s.
type checkpoint struct {
	k            kernel
	m            *Model
	stamp, costs uint64
	fresh, away  bool
	owed         Outcome
	home, st     state
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
// place (SetObjective, SetRHS, Fix) it fits, refilled — even identically —
// it does not, the kernel's matrix being a copy of rows that are gone. Any
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

// SolveWarm solves m on the warm ladder and keeps its final kernel: a hot
// re-solve on the retained kernel when the constraint matrix is unchanged
// (only rhs, objective and pins may differ — the cross-slot case), a fresh
// start otherwise (see SolveFresh), and the cold two-phase path as the
// correctness anchor whenever a warm attempt fails. A warm result is
// accepted only at status Optimal and after the model re-verifies the
// solution, so correctness never depends on the warm path. A cold optimum
// is kept too: the next call on the same structure crashes its basis into
// the warm kernel (handOver) and re-solves hot from it. The second
// parameter is ignored.
func (s *Solver) SolveWarm(m *Model, _ *Basis, opts Options) (*Result, error) {
	return s.solve(m, opts, true)
}

// SolveFresh solves m from scratch without consulting or keeping any
// cross-call retained state, so the result is a pure function of (model,
// opts): a plan does not depend on what the spare unit solved before
// (DESIGN.md §7). The kernel is chosen from the
// row count: from sparseMinRows rows up the LU kernel starts from the
// all-slack basis, below it the start is the cold two-phase simplex, which
// is the anchor behind a failed start too.
func (s *Solver) SolveFresh(m *Model, opts Options) (*Result, error) {
	return s.solve(m, opts, false)
}

// solve is the warm ladder — hot, fresh, audited cold — behind SolveWarm
// (keep) and SolveFresh (!keep). It drops the checkpoint, SolveWarm first
// putting the kernel back where the solve before its trials left it.
func (s *Solver) solve(m *Model, opts Options, keep bool) (*Result, error) {
	s.breathe()
	s.out, s.last, s.cp.owed = s.cp.owed, nil, Outcome{}
	s.sparse.held = false
	sparse := s.sparseAt(m)
	opts = opts.withDefaults(len(m.rows), len(m.names))
	if cp := &s.cp; keep && cp.k != nil && (cp.away || !cp.fresh) {
		refactors, ok := cp.k.restore(&cp.home)
		if s.out.Refactors += refactors; !ok {
			s.ws = retained{}
		}
	}
	if s.cp.k = nil; !keep {
		s.ws = retained{}
	}
	attempted := false
	if k := s.ws.k; s.ws.fits(m) {
		stale := s.ws.uses >= maxHotUses
		var armed bool
		if k == kernel(&s.cold) {
			k, armed = s.handOver(m, opts)
		} else {
			armed = k.rearm(m, opts, stale)
		}
		// On a model with pins, a column held out of the kernel's optimality
		// may be free now: the costs in place are relaxed for it.
		if armed && len(m.fixed) > 0 {
			k.relax()
		}
		if attempted = k != nil; attempted {
			if res := s.attempt(k, armed, true, math.Inf(-1), opts.Tol); res != nil {
				if stale {
					s.ws.uses = 0
				}
				s.ws.uses++
				s.ws.stamp = m.stamp
				s.out.Path, s.out.Sparse = "hot", sparse
				return res, nil
			}
		}
		s.ws = retained{}
	}
	if sparse {
		attempted = true
		s.ws = retained{} // the build reuses the retained kernel's workspace
		k := newSparseSolveIn(m, opts, &s.sparse)
		if res := s.attempt(k, k.crash(nil), true, math.Inf(-1), opts.Tol); res != nil {
			if keep {
				s.ws = retained{k: k, stamp: m.stamp}
			}
			s.out.Path, s.out.Sparse = "fresh", true
			return res, nil
		}
	}
	s.out.FellBack = attempted
	res, err := s.solveCold(m, opts)
	if keep && err == nil {
		s.ws = retained{k: &s.cold, stamp: m.stamp} // handed over when next asked
	}
	return res, err
}

// sparseAt reports whether m's warm paths run on the LU kernel.
func (s *Solver) sparseAt(m *Model) bool {
	if s.minRows > 0 {
		return len(m.rows) >= s.minRows
	}
	return len(m.rows) >= sparseMinRows
}

// Checkpoint keeps the final kernel of the preceding solve on s — a warm
// one, or a trial, that ended Optimal — as the state Trial starts from,
// reporting whether it could (a failed solve leaves no kernel). A cold
// solve's optimum is first handed to the warm kernel (rewarm), which the
// next SolveWarm resumes hot; the work is owed to the next solve on s.
// That SolveWarm resumes where the solve before the trials left the
// kernel: trials do not move the hot chain.
func (s *Solver) Checkpoint() bool {
	k, cp := s.last, &s.cp
	if k == kernel(&s.cold) {
		k, cp.owed = s.rewarm()
	}
	if k == nil {
		return false
	}
	st := &cp.home
	if cp.away = s.out.Path == "trial"; cp.away {
		st = &cp.st
	}
	refactors, ok := k.save(st)
	if !ok { // the kernel broke down refactorizing, and shared its factors
		cp.k, s.ws = nil, retained{}
		return false
	}
	m := k.model()
	cp.k, cp.m, cp.stamp, cp.costs, cp.fresh = k, m, m.stamp, m.costs, true
	cp.owed.Refactors += refactors
	return true
}

// handOver builds the warm kernel m's size selects, retained, and crashes
// into it the basis the cold tableau ended with — structural and slack
// columns are numbered alike on every layout — reporting whether it went
// in whole. The costs in place are zero, as after any crash. Nil when an
// artificial is still basic (degenerate redundant rows).
func (s *Solver) handOver(m *Model, opts Options) (k kernel, armed bool) {
	t := &s.cold
	for _, c := range t.basis {
		if c >= t.artStart {
			return nil, false
		}
	}
	if s.sparseAt(m) {
		k = newSparseSolveIn(m, opts, &s.sparse)
	} else {
		k = newWarmTableauIn(m, opts, &s.warm)
	}
	s.ws, s.cp.k = retained{k: k, stamp: m.stamp}, nil // the build reused their workspace
	return k, k.crash(t.basis)
}

// rewarm hands the cold tableau's optimum to the warm kernel and drives it
// to the optimum it already is, retained hot. It returns that kernel, nil
// when the hand-over or the attempt failed, and what it cost as crash work
// and refactorizations; s's outcome is left as it was.
func (s *Solver) rewarm() (kernel, Outcome) {
	t := &s.cold
	k, armed := s.handOver(t.m, t.opts)
	if k == nil {
		return nil, Outcome{}
	}
	out := s.out
	s.out = Outcome{}
	res := s.attempt(k, armed, true, math.Inf(-1), t.opts.Tol)
	work := Outcome{ImportPivots: s.out.ImportPivots + s.out.WarmPivots + s.out.AbandonedPivots, Refactors: s.out.Refactors}
	if s.out = out; res == nil {
		s.ws = retained{}
		return nil, work
	}
	return k, work
}

// Trial solves m — the checkpointed model, only its numbers changed since
// (SetRHS, SetObjective, Fix) — hot from the checkpoint, which stays as it
// was: every trial starts from it, until Checkpoint keeps a trial's final
// kernel in its place. A trial that would refactorize, breaks down, finds
// the model infeasible or fails the audit returns nil, and the caller goes
// on down the ladder on another solver: the kernel's factors are the
// checkpoint's, so no fresh start may run on this one. With no checkpoint for
// m at its stamp, Trial returns nil at once.
//
// cutoff, in the model's own direction, is what the caller needs the
// optimum to beat. Where the repair runs under m's own costs — the
// checkpoint's, no column priced in by relax — each of its iterates is a
// dual bound on the optimum, and the trial stops as soon as one fails to
// beat cutoff: the Result then has Status Cutoff and that bound as its
// Objective, and no solution. Such a cut is an answer, not a failure, and
// its kernel is no checkpoint. The unreachable side — −Inf maximizing,
// +Inf minimizing — never cuts.
func (s *Solver) Trial(m *Model, opts Options, cutoff float64) *Result {
	s.breathe()
	s.out, s.last, s.cp.owed = s.cp.owed, nil, Outcome{}
	cp := &s.cp
	if cp.k == nil || cp.m != m || cp.stamp != m.stamp {
		return nil
	}
	k, st := cp.k, &cp.home
	if cp.away {
		st = &cp.st
	}
	if !cp.fresh {
		if _, ok := k.restore(st); !ok {
			return nil
		}
	}
	cp.fresh = false
	s.sparse.held = true
	opts = opts.withDefaults(len(m.rows), len(m.names))
	// Under the checkpoint's own costs, unless relax moved some, the
	// repair leaves the true reduced costs in place: no pricing in.
	armed := k.rearm(m, opts, false)
	price := armed && k.relax() || m.costs != cp.costs
	if cutoff *= m.dir(); price {
		cutoff = math.Inf(-1)
	}
	res := s.attempt(k, armed, price, cutoff, opts.Tol)
	if res != nil {
		_, sparse := k.(*sparseSolve)
		s.out.Path, s.out.Sparse = "trial", sparse
	}
	return res
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
// so) repairs primal feasibility, then the true costs are priced in (if
// price: a trial's may be in place already) and primal pivots finish. The
// claim is audited — the solution must re-verify against the model within
// a tolerance proportional to the rhs scale — and any failure, a kernel
// that could not be armed included, books the pivots burned and returns
// nil so the ladder steps down. A repair stopped by cutoff (see Trial) is
// answered, its pivots booked as warm.
func (s *Solver) attempt(k kernel, armed, price bool, cutoff, tol float64) *Result {
	defer s.bookCrash(k)
	if armed {
		switch k.dualIterate(cutoff) {
		case Cutoff:
			s.out.WarmPivots = k.pivots()
			s.res = Result{Status: Cutoff, Objective: k.model().dir() * k.bound(), Iterations: k.pivots(), Warm: true, X: s.res.X[:0], Duals: s.res.Duals[:0]}
			return &s.res
		case Optimal:
			if price && !k.priceIn() {
				break
			}
			if k.primalIterate() == Optimal {
				m, x := k.model(), k.extract(s.res.X)
				if s.res.X = x; m.CheckFeasible(x, auditTol(m, tol)) == nil {
					s.out.WarmPivots = k.pivots()
					s.last = k
					s.res = Result{
						Status:     Optimal,
						Objective:  m.ObjectiveValue(x),
						X:          x,
						Duals:      k.duals(s.res.Duals),
						Iterations: k.pivots(),
						Warm:       true,
					}
					return &s.res
				}
			}
		}
	}
	s.out.AbandonedPivots += k.pivots()
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

func (s *Solver) solveCold(m *Model, opts Options) (*Result, error) {
	t := newTableauIn(m, opts, &s.cold)
	st := t.run()
	s.out.Path, s.out.ColdPivots = "cold", t.iters
	if st == Optimal {
		s.last = t
	}
	return t.result(st, &s.res)
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
		t.basis[i] = -1 // assigned by crash
	}
	return t
}

func (t *tableau) model() *Model { return t.m }

func (t *tableau) save(st *state) (int, bool) {
	st.a.CopyFrom(&t.a)
	st.basis, st.vals = append(st.basis[:0], t.basis...), append(st.vals[:0], t.z...)
	return 0, true
}

func (t *tableau) restore(st *state) (int, bool) {
	t.a.CopyFrom(&st.a)
	copy(t.basis, st.basis)
	copy(t.z, st.vals)
	return 0, true
}

// relax clears every negative reduced cost of an enterable column (a
// basic one's is 0).
func (t *tableau) relax() (moved bool) {
	fixed := t.m.fixed
	for c, rc := range t.z[:t.colLimit] {
		if rc < 0 && !fixed.has(c) {
			t.z[c], moved = 0, true
		}
	}
	return moved
}

func (t *tableau) pivots() int { return t.iters }

func (t *tableau) crashWork() (crashed, refactors int) { return t.crashed, t.refactors }

func (t *tableau) priceIn() bool {
	t.setPhase2Z()
	return true
}

func (t *tableau) primalIterate() Status { return t.iterate() }

// rearm is the dense hot path's whole trick: the marker block (B⁻¹) turns
// the new rhs into the new basic solution in O(rows²) with no
// refactorization. A stale tableau is rebuilt from m and its basis
// instead (refactorize).
func (t *tableau) rearm(m *Model, opts Options, stale bool) bool {
	t.iters, t.crashed, t.refactors = 0, 0, 0
	t.m = m
	t.opts = opts.withDefaults(t.a.Rows, t.n)
	if stale {
		return t.refactorize()
	}
	t.refreshRHS()
	return true
}

// refactorize builds the tableau again from its model and crashes its basis
// back in, shedding the drift its pivots accumulated; the costs in place are
// zero after it, as after a crash. False: the basis went singular.
func (t *tableau) refactorize() bool {
	basis := append(t.saved[:0], t.basis...)
	newWarmTableauIn(t.m, t.opts, t)
	ok := t.crash(basis)
	t.saved, t.crashed, t.refactors = basis, 0, 1
	return ok
}

// crashPivTol is the minimum pivot magnitude accepted while crashing a
// basis; anything smaller is treated as singular.
const crashPivTol = 1e-7

// crash pivots cols into a freshly built tableau, then slacks into the
// rows left uncovered (see kernel.crash): false — the caller goes cold —
// when a row cannot be covered at all (an uncovered EQ row, or a singular
// slack pivot).
func (t *tableau) crash(cols []int) bool {
	for _, c := range cols {
		best, bestAbs := -1, crashPivTol
		for r := 0; r < t.a.Rows; r++ {
			if t.basis[r] >= 0 {
				continue
			}
			if a := math.Abs(t.a.At(r, c)); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 {
			continue // dependent on columns already crashed in: drop it
		}
		t.pivot(best, c)
		t.crashed++
	}
	for r := 0; r < t.a.Rows; r++ {
		if t.basis[r] >= 0 {
			continue
		}
		c := t.rowSlack[r]
		if c < 0 || math.Abs(t.a.At(r, c)) <= crashPivTol {
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
// negative basic values — and fixed basic columns above zero — out while
// preserving dual feasibility — exactly the repair needed after an rhs
// perturbation or a pin. Returns Optimal when the basic solution is
// feasible, Infeasible when a violating row has no eligible entering
// column (a primal infeasibility certificate, which callers re-confirm via
// the cold path), or IterationLimit.
//
// Like the primal iterate, it starts on Dantzig-style pricing (most
// negative basic value, minimum ratio) and switches to Bland's
// smallest-index rule — smallest basic column among the violating rows,
// smallest entering column among the ratio minimizers — after stalling,
// so a dual-degenerate rhs perturbation cannot cycle the hot path into
// its MaxIterations budget. The objective value in the z row's rhs cell
// is the progress measure: dual pivots only ever decrease it, and a long
// run without decrease is the cycling signature. That cell is stale after
// refreshRHS, so the cutoff reads the basic objective afresh (basicObj):
// O(rows) against a pivot's O(rows × columns).
func (t *tableau) dualIterate(cutoff float64) Status {
	tol := t.opts.Tol
	fixed := t.m.fixed
	bland := t.opts.Bland
	stall := 0
	lastObj := math.Inf(1)
	cuts := !math.IsInf(cutoff, -1)
	for {
		if t.iters >= t.opts.MaxIterations {
			return IterationLimit
		}
		leave, up := t.leaving(bland, tol)
		if leave < 0 {
			return Optimal
		}
		if cuts {
			if t.cut = t.basicObj(); t.cut < cutoff {
				return Cutoff
			}
		}
		// A negative basic leaves at its lower bound 0 through a negative
		// entry of its row; a fixed one above 0 leaves at its upper bound 0,
		// the bounded dual simplex's rule, through a positive one: the row
		// with its sign flipped.
		sign := 1.0
		if up {
			sign = -1
		}
		row := t.a.Row(leave)
		enter, bestRatio := -1, math.Inf(1)
		for c := 0; c < t.colLimit; c++ {
			a := sign * row[c]
			if a >= -tol || fixed.has(c) {
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
				a := sign * row[c]
				if a >= -tol || fixed.has(c) {
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

// basicObj is the basic solution's objective under the model's costs, in
// the internal maximization: Σ dir·c_b·x_b over the basic structurals.
func (t *tableau) basicObj() float64 {
	dir, rhs := t.m.dir(), t.total
	var z float64
	for r, b := range t.basis {
		if b < t.n {
			z += dir * t.m.obj[b] * t.a.At(r, rhs)
		}
	}
	return z
}

func (t *tableau) bound() float64 { return t.cut }

// leaving is the dual simplex's leaving row, as the LU kernel picks it
// (sparseSolve.leaving, blandLeaving), by scans: the most negative basic
// value (bland: the violator with the smallest basic column), and on a
// model with pins, in a second scan, a fixed basic above tol, which leaves
// at its upper bound 0 (up).
func (t *tableau) leaving(bland bool, tol float64) (leave int, up bool) {
	fixed, rhs := t.m.fixed, t.total
	leave = -1
	if bland {
		bestCol := t.total + 1
		for r := 0; r < t.a.Rows; r++ {
			if t.a.At(r, rhs) < -tol && t.basis[r] < bestCol {
				leave, bestCol = r, t.basis[r]
			}
		}
		if len(fixed) > 0 {
			for r := 0; r < t.a.Rows; r++ {
				if t.a.At(r, rhs) > tol && t.basis[r] < bestCol && fixed.has(t.basis[r]) {
					leave, bestCol, up = r, t.basis[r], true
				}
			}
		}
		return leave, up
	}
	minVal := -tol
	for r := 0; r < t.a.Rows; r++ {
		if v := t.a.At(r, rhs); v < minVal {
			leave, minVal = r, v
		}
	}
	if len(fixed) > 0 {
		for r := 0; r < t.a.Rows; r++ {
			if v := t.a.At(r, rhs); v > -minVal && fixed.has(t.basis[r]) {
				leave, minVal, up = r, -v, true
			}
		}
	}
	return leave, up
}
