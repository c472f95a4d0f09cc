package lp

import (
	"math"

	"profitlb/internal/linalg"
)

// Options tunes the simplex solver. The zero value selects sensible
// defaults via (*Options).withDefaults.
type Options struct {
	// MaxIterations bounds the total pivot count across both phases.
	// 0 means an automatic bound of 200*(rows+cols)+2000.
	MaxIterations int
	// Tol is the numeric tolerance for zero tests. 0 means defaultTol.
	Tol float64
	// Bland forces Bland's smallest-index rule from the first pivot.
	// By default Dantzig pricing is used and the solver switches to
	// Bland's rule after stalling to guarantee termination.
	Bland bool
	// Sparse is ignored: the warm kernel is a function of the LP's row
	// count alone (see sparseMinRows).
	//
	// Deprecated: bench/slots.go still assigns it, and the PR that stopped
	// honouring it could not edit bench/; ROADMAP item 8 deletes it.
	Sparse bool
}

// defaultTol is the solver's zero test; every tolerance outside the
// solver is this one or looser (DESIGN §16).
const defaultTol = 1e-9

func (o Options) withDefaults(rows, cols int) Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200*(rows+cols) + 2000
	}
	if o.Tol <= 0 {
		o.Tol = defaultTol
	}
	return o
}

// Solve optimizes the model with default options.
func (m *Model) Solve() (*Result, error) { return m.SolveOpts(Options{}) }

// SolveOpts optimizes the model with the given options. On Infeasible,
// Unbounded or IterationLimit outcomes it returns both a Result carrying
// the status and the matching sentinel error.
func (m *Model) SolveOpts(opts Options) (*Result, error) {
	t := newTableau(m, opts)
	return t.result(t.run())
}

// result assembles the Result (and sentinel error) for a finished tableau.
// Optimal claims are audited against the model with the same rhs-scaled
// CheckFeasible gate the warm paths use: a tableau that drifted far enough
// to report basic values beyond the audit tolerance surfaces
// NumericBreakdown instead of a silently wrong answer.
func (t *tableau) result(status Status) (*Result, error) {
	res := &Result{Status: status, Iterations: t.iters}
	if status != Optimal {
		var err error
		switch status {
		case Infeasible:
			err = ErrInfeasible
		case Unbounded:
			err = ErrUnbounded
		default:
			err = ErrIterationLimit
		}
		return res, err
	}
	x := t.extract()
	if t.m.CheckFeasible(x, auditTol(t.m, t.opts.Tol)) != nil {
		res.Status = NumericBreakdown
		return res, ErrNumericBreakdown
	}
	res.X = x
	res.Objective = t.m.ObjectiveValue(x)
	res.Duals = t.duals()
	return res, nil
}

// tableau is the dense two-phase simplex working state.
//
// Layout: columns 0..n-1 are the structural variables, then one slack or
// surplus column per inequality row, then one artificial column per row
// that needs one (GE and EQ rows, and LE rows with negative rhs after sign
// normalization), and a final rhs column. Row r of the matrix is constraint
// r; basis[r] holds the index of the column currently basic in that row.
type tableau struct {
	m         *Model
	opts      Options
	n         int // structural variable count
	total     int // structural + slack + artificial count
	artStart  int
	colLimit  int // entering columns are restricted to [0, colLimit)
	iters     int
	crashed   int     // pivots crash spent, outside iters
	refactors int     // refactorizations since rearm: 1 for a stale one
	cut       float64 // the basic objective that stopped the last repair (bound)
	arena
}

// arena is the part of a tableau that outlives a solve: the backing
// buffers. A Solver keeps two tableaus (one for cold solves, one for the
// retained warm kernel) and newTableauIn rebuilds each in place, so
// successive solves through one Solver reuse the dense state.
type arena struct {
	a     linalg.Matrix // rows x (total+1); last column is rhs
	basis []int
	// objective row being optimized, length total+1 (reduced costs + value)
	z linalg.Vector
	// dualCol and dualSign recover the dual value of each original row
	// from the final reduced-cost row: y_i = dualSign[i] * z[dualCol[i]].
	// The column is the row's slack (LE), surplus (GE, sign -1) or
	// artificial (EQ) column; rows flipped during rhs normalization carry
	// an extra sign flip.
	dualCol  []int
	dualSign []float64
	// rowSlack holds each row's slack/surplus column (-1 for EQ rows), for
	// the crash's slack pass.
	rowSlack []int
	rhs      []float64 // scratch for the warm rhs refresh
	saved    []int     // scratch for the basis refactorize crashes back in
}

// zeroed is linalg.Resized with the contents cleared.
func zeroed[S ~[]E, E any](buf S, n int) S {
	buf = linalg.Resized(buf, n)
	clear(buf)
	return buf
}

// reset points t (a fresh tableau when nil) at a new model, keeping only
// its arena.
func (t *tableau) reset(m *Model, opts Options) *tableau {
	if t == nil {
		t = new(tableau)
	}
	*t = tableau{m: m, n: len(m.names), arena: t.arena}
	t.opts = opts.withDefaults(len(m.rows), t.n)
	return t
}

// alloc sizes the tableau's matrix, basis and per-row bookkeeping for the
// given row count; total must be set.
func (t *tableau) alloc(rows int) {
	t.a.Reset(rows, t.total+1)
	t.basis, t.rowSlack, t.dualCol = zeroed(t.basis, rows), zeroed(t.rowSlack, rows), zeroed(t.dualCol, rows)
	t.dualSign = zeroed(t.dualSign, rows)
}

func newTableau(m *Model, opts Options) *tableau { return newTableauIn(m, opts, nil) }

// newTableauIn builds the cold two-phase tableau for m in t's arena (a
// fresh tableau when t is nil).
func newTableauIn(m *Model, opts Options, t *tableau) *tableau {
	t = t.reset(m, opts)
	rows, n := len(m.rows), t.n

	// Count slack/surplus and artificial columns, on rows normalized to
	// rhs ≥ 0 so the artificial assignment is decidable.
	slacks := 0
	arts := 0
	for i := range m.rows {
		sense, _ := coldSense(&m.rows[i])
		if sense != EQ {
			slacks++
		}
		if sense != LE {
			arts++
		}
	}
	t.total = n + slacks + arts
	t.artStart = n + slacks
	t.alloc(rows)

	slackCol := n
	artCol := t.artStart
	for i := range m.rows {
		row := &m.rows[i]
		r := t.a.Row(i)
		sense, sign := coldSense(row)
		for _, term := range row.terms {
			r[term.Var] += sign * term.Coef
		}
		r[t.total] = sign * row.rhs
		switch sense {
		case LE:
			r[slackCol] = 1
			t.basis[i] = slackCol
			t.dualCol[i], t.dualSign[i] = slackCol, sign
			slackCol++
		case GE:
			r[slackCol] = -1
			t.dualCol[i], t.dualSign[i] = slackCol, -sign
			slackCol++
			r[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			r[artCol] = 1
			t.basis[i] = artCol
			t.dualCol[i], t.dualSign[i] = artCol, sign
			artCol++
		}
	}
	return t
}

// coldSense is row's sense once the cold tableau has flipped it to a
// non-negative rhs, and the sign the flip multiplies the row by. A flip
// keeps an inequality an inequality, so the slack columns are numbered as
// on the warm layouts.
func coldSense(row *constraint) (Sense, float64) {
	switch {
	case row.rhs >= 0:
		return row.sense, 1
	case row.sense == LE:
		return GE, -1
	case row.sense == GE:
		return LE, -1
	}
	return EQ, -1
}

// duals recovers the dual value of every original constraint row from the
// final phase-2 reduced-cost row. For a maximization model, y_i is the
// marginal objective gain per unit of rhs slack on row i (≥ 0 for binding
// LE rows, ≤ 0 for binding GE rows, free for EQ rows); minimization
// models report ∂objective/∂rhs in the minimized direction.
func (t *tableau) duals() []float64 {
	y := make([]float64, len(t.dualCol))
	dir := t.m.dir()
	for i, col := range t.dualCol {
		y[i] = dir * t.dualSign[i] * t.z[col]
	}
	return y
}

// run executes both phases and returns the final status.
func (t *tableau) run() Status {
	tol := t.opts.Tol
	// Phase 1: minimize the sum of artificial variables, expressed as
	// maximizing -(sum of artificials). Build the phase-1 reduced-cost row
	// by pricing out the basic artificial columns.
	if t.artStart < t.total {
		t.colLimit = t.total
		t.z = zeroed(t.z, t.total+1)
		for c := t.artStart; c < t.total; c++ {
			t.z[c] = 1 // minimize sum of artificials
		}
		// Price out: subtract rows whose basic variable is artificial.
		for r, b := range t.basis {
			if b >= t.artStart {
				t.z.AddScaled(-1, t.a.Row(r))
			}
		}
		if st := t.iterate(); st != Optimal {
			// The phase-1 objective is bounded below by 0, so Unbounded is
			// only ever numerical breakdown on a degenerate tableau, never a
			// certificate about the model. Report it as IterationLimit so
			// callers escalate (resilient chain, drop-worst retry) instead
			// of acting on a false infeasible/unbounded verdict.
			if st == Unbounded {
				return IterationLimit
			}
			return st
		}
		if -t.z[t.total] > tol { // objective value = -z[rhs]
			return Infeasible
		}
		// Drive any artificial variables that remain basic at zero out of
		// the basis so phase 2 never pivots on them.
		for r, b := range t.basis {
			if b < t.artStart {
				continue
			}
			row := t.a.Row(r)
			pivoted := false
			for c := 0; c < t.artStart; c++ {
				if math.Abs(row[c]) > tol && !t.m.fixed.has(c) {
					t.pivot(r, c)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// The row is all-zero over structural+slack columns: it is
				// redundant; leave the zero artificial basic. Blocking its
				// column in phase 2 keeps it at zero.
				_ = r
			}
		}
	}

	// Phase 2: maximize the true objective. Reduced costs start from -c
	// (maximization) and are priced out against the current basis.
	// Artificial columns are blocked from entering; any still basic are
	// stuck at zero in redundant rows and stay there.
	t.colLimit = t.artStart
	t.setPhase2Z()
	return t.iterate()
}

// setPhase2Z rebuilds the reduced-cost row for the true objective by
// pricing out the current basis. colLimit must already exclude any
// artificial columns. The warm path calls it directly after refreshing
// the rhs or crashing a basis in.
func (t *tableau) setPhase2Z() {
	t.z = zeroed(t.z, t.total+1)
	dir := t.m.dir()
	for v, c := range t.m.obj {
		t.z[v] = -dir * c
	}
	for r, b := range t.basis {
		if coef := t.z[b]; coef != 0 {
			t.z.AddScaled(-coef, t.a.Row(r))
		}
	}
}

// iterate performs simplex pivots on the current objective row until
// optimality, unboundedness or the iteration limit.
func (t *tableau) iterate() Status {
	tol := t.opts.Tol
	bland := t.opts.Bland
	stall := 0
	lastObj := math.Inf(-1)
	for {
		if t.iters >= t.opts.MaxIterations {
			return IterationLimit
		}
		col := t.chooseColumn(bland, tol)
		if col < 0 {
			return Optimal
		}
		row := t.chooseRow(col, bland, tol)
		if row < 0 {
			return Unbounded
		}
		t.pivot(row, col)
		t.iters++
		// Stall detection: if the objective value has not improved for a
		// while under Dantzig pricing, fall back to Bland's rule, which is
		// guaranteed to terminate. The tableau convention keeps the current
		// (maximized) objective value in the rhs cell of the z row.
		obj := t.z[t.total]
		if obj <= lastObj+tol {
			stall++
			if stall > 64 {
				bland = true
			}
		} else {
			stall = 0
			lastObj = obj
		}
	}
}

// chooseColumn returns the entering column, or -1 at optimality. Artificial
// columns are never eligible in phase 2 (they are eligible in phase 1 only
// in the sense of leaving; their reduced costs start at 0 after pricing),
// and a fixed column never is.
func (t *tableau) chooseColumn(bland bool, tol float64) int {
	limit, fixed := t.colLimit, t.m.fixed
	best := -1
	bestVal := -tol
	for c := 0; c < limit; c++ {
		rc := t.z[c]
		if rc < bestVal && !fixed.has(c) {
			if bland {
				return c
			}
			best = c
			bestVal = rc
		}
	}
	return best
}

// chooseRow performs the ratio test for entering column col and returns the
// leaving row, or -1 if the column is unbounded. A fixed column still basic
// (at zero: the dual repair drove out every one above it) blocks where col
// would raise it, at its upper bound of 0.
func (t *tableau) chooseRow(col int, bland bool, tol float64) int {
	rhs, fixed := t.total, t.m.fixed
	pinned := len(fixed) > 0
	best := -1
	bestRatio := math.Inf(1)
	for r := 0; r < t.a.Rows; r++ {
		a := t.a.At(r, col)
		if a <= tol && (!pinned || a >= -tol || !fixed.has(t.basis[r])) {
			continue
		}
		ratio := t.a.At(r, rhs) / a
		if ratio < bestRatio-tol {
			best, bestRatio = r, ratio
			continue
		}
		if ratio <= bestRatio+tol && best >= 0 {
			// Tie-break. Under Bland's rule pick the smallest basic index
			// (guarantees termination); otherwise prefer kicking artificial
			// variables out of the basis first.
			bi, bb := t.basis[r], t.basis[best]
			if bland {
				if bi < bb {
					best, bestRatio = r, ratio
				}
			} else if bi >= t.artStart && bb < t.artStart {
				best, bestRatio = r, ratio
			}
		}
	}
	return best
}

// pivot makes column col basic in row row.
func (t *tableau) pivot(row, col int) {
	p := t.a.At(row, col)
	t.a.ScaleRow(row, 1/p)
	// Re-normalize tiny residue on the pivot element.
	t.a.Set(row, col, 1)
	pr := t.a.Row(row)
	for r := 0; r < t.a.Rows; r++ {
		if r == row {
			continue
		}
		if f := t.a.At(r, col); f != 0 {
			t.a.Row(r).AddScaled(-f, pr)
			t.a.Set(r, col, 0)
		}
	}
	if f := t.z[col]; f != 0 {
		t.z.AddScaled(-f, pr)
		t.z[col] = 0
	}
	t.basis[row] = col
}

// extract reads the structural solution out of the final tableau.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.n)
	rhs := t.total
	for r, b := range t.basis {
		if b < t.n {
			v := t.a.At(r, rhs)
			if v < 0 && v > -t.opts.Tol*10 {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}
