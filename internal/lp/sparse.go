package lp

import (
	"math"

	"profitlb/internal/linalg"
)

// DefaultSparseMinRows is the row count at and above which Options.Sparse
// routes warm solves through the sparse revised simplex. Below it the
// dense tableau's cache behavior wins and the warm paths stay dense (and
// bit-identical to a Solver with Sparse off).
const DefaultSparseMinRows = 64

// sparseRefactorEvery bounds the product-form eta file: once this many
// updates accumulate on top of the LU factors, the basis is refactorized
// from scratch so solve cost and floating-point drift stay bounded.
const sparseRefactorEvery = 100

// sparseStallLimit mirrors the dense stall→Bland switch: after this many
// pivots without objective progress the sparse iterations fall back to
// Bland's smallest-index rule, which cannot cycle.
const sparseStallLimit = 64

// sparseEligible reports whether warm solves of m should use the sparse
// revised simplex path.
func (o Options) sparseEligible(m *Model) bool {
	if !o.Sparse {
		return false
	}
	min := o.SparseMinRows
	if min <= 0 {
		min = DefaultSparseMinRows
	}
	return len(m.rows) >= min
}

// sparseSolve is the revised-simplex working state: the constraint matrix
// in compressed sparse-column form (structural columns then one slack or
// surplus column per inequality row, rows unflipped), an LU-factorized
// basis with a product-form eta file on top, and the basic solution xB
// indexed by basis position. Unlike the dense tableau no quadratic state
// exists: every iteration works through FTRAN/BTRAN solves against the
// factors plus one sweep over the sparse columns for pricing.
type sparseSolve struct {
	m    *Model
	opts Options

	n     int // structural variable count
	rows  int
	ncols int // structural + slack/surplus

	// CSC storage of the full column set.
	ptr []int
	ind []int
	val []float64

	rowSlack []int // row -> slack column, -1 for EQ rows
	slackRow []int // slack column - n -> row

	obj []float64 // internal maximization costs per column (dir·c, slacks 0)

	basis   []int // basis position -> column
	inBasis []int // column -> basis position, -1 when nonbasic
	xB      []float64

	iters   int
	crashed int // columns eliminated into lu, outside iters
	cursor  int // partial-pricing scan position

	// scratch
	wrk, w, rho, y, tmp, bvec []float64

	sparseArena
}

// sparseArena is the part of a sparseSolve that outlives a solve: the two
// slabs every array above is cut from, the factors and eta file (each
// recycling its own storage) and the seed-resolution scratch. A Solver
// keeps one kernel and newSparseSolveIn rebuilds it in place.
type sparseArena struct {
	ints   []int
	floats []float64
	lu     linalg.SparseLU
	etas   linalg.EtaFile
	seed   []int
}

// carve cuts the next n entries off slab.
func carve[T any](slab *[]T, n int) []T {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// newSparseSolveIn builds the CSC representation and scratch state for m
// in ss's arena (a fresh kernel when ss is nil). The basis is established
// later by importBasis.
func newSparseSolveIn(m *Model, opts Options, ss *sparseSolve) *sparseSolve {
	if ss == nil {
		ss = new(sparseSolve)
	}
	n := len(m.names)
	rows := len(m.rows)
	*ss = sparseSolve{m: m, n: n, rows: rows, sparseArena: ss.sparseArena}
	ss.opts = opts.withDefaults(rows, n)

	slacks := 0
	nnz := 0
	for i := range m.rows {
		if m.rows[i].sense != EQ {
			slacks++
			nnz++
		}
		nnz += len(m.rows[i].terms)
	}
	ss.ncols = n + slacks
	// ints: ptr, ind, rowSlack, slackRow, count, basis, inBasis; floats:
	// val, obj, xB and the six scratch vectors — every carve below.
	ss.ints = zeroed(ss.ints, 3*ss.ncols+1+nnz+2*rows+slacks)
	ss.floats = zeroed(ss.floats, nnz+ss.ncols+7*rows)
	ints, floats := ss.ints, ss.floats
	ss.ptr, ss.ind, ss.val = carve(&ints, ss.ncols+1), carve(&ints, nnz), carve(&floats, nnz)
	ss.rowSlack, ss.slackRow = carve(&ints, rows), carve(&ints, slacks)

	// Column counting pass, then fill. Duplicate terms are kept as-is:
	// every consumer (LU, pricing, FTRAN scatter) accumulates.
	count := carve(&ints, ss.ncols)
	for i := range m.rows {
		for _, t := range m.rows[i].terms {
			count[t.Var]++
		}
	}
	sc := n
	for i := range m.rows {
		ss.rowSlack[i] = -1
		if m.rows[i].sense != EQ {
			ss.rowSlack[i] = sc
			ss.slackRow[sc-n] = i
			count[sc]++
			sc++
		}
	}
	for j := 0; j < ss.ncols; j++ {
		ss.ptr[j+1] = ss.ptr[j] + count[j]
		count[j] = ss.ptr[j]
	}
	for i := range m.rows {
		for _, t := range m.rows[i].terms {
			p := count[t.Var]
			ss.ind[p], ss.val[p] = i, t.Coef
			count[t.Var] = p + 1
		}
		if c := ss.rowSlack[i]; c >= 0 {
			p := count[c]
			v := 1.0
			if m.rows[i].sense == GE {
				v = -1.0
			}
			ss.ind[p], ss.val[p] = i, v
			count[c] = p + 1
		}
	}

	ss.obj = carve(&floats, ss.ncols)
	ss.basis = carve(&ints, rows)[:0]
	ss.inBasis = carve(&ints, ss.ncols)
	for j := range ss.inBasis {
		ss.inBasis[j] = -1
	}
	ss.xB, ss.wrk, ss.w = carve(&floats, rows), carve(&floats, rows), carve(&floats, rows)
	ss.rho, ss.y, ss.tmp = carve(&floats, rows), carve(&floats, rows), carve(&floats, rows)
	ss.bvec = carve(&floats, rows)
	return ss
}

func (ss *sparseSolve) col(j int) ([]int, []float64) {
	return ss.ind[ss.ptr[j]:ss.ptr[j+1]], ss.val[ss.ptr[j]:ss.ptr[j+1]]
}

// colDot returns Σ a_ij · v[i] over column j's entries (v row-indexed).
func (ss *sparseSolve) colDot(j int, v []float64) float64 {
	ci, cv := ss.col(j)
	var s float64
	for t, r := range ci {
		s += cv[t] * v[r]
	}
	return s
}

func (ss *sparseSolve) dir() float64 {
	if ss.m.minimize {
		return -1
	}
	return 1
}

// priceIn loads the internal maximization costs from the current model.
func (ss *sparseSolve) priceIn() {
	d := ss.dir()
	for v := 0; v < ss.n; v++ {
		ss.obj[v] = d * ss.m.obj[v]
	}
	for v := ss.n; v < ss.ncols; v++ {
		ss.obj[v] = 0
	}
}

// importBasis assembles the starting basis and its basic solution: seed
// members first (unknown names and linearly dependent columns dropped,
// exactly like the dense import), then slack columns until every row is
// covered — with no seed at all, the all-slack basis. It fails — sending
// the caller to the cold path — when no complete basis emerges (e.g. an
// EQ row no seed column covers). The costs of a fresh kernel are zero,
// which is the trivially dual-feasible row the repair phase needs.
func (ss *sparseSolve) importBasis(seed *Basis) bool {
	ss.lu.Reset(ss.rows, importPivTol)
	ss.basis = ss.basis[:0]
	var cols []int
	cols, ss.seed = seed.members(ss.m, ss.rowSlack, ss.seed)
	for _, c := range cols {
		if ss.lu.Complete() {
			break
		}
		if ss.eliminate(c) {
			ss.basis = append(ss.basis, c)
		}
	}
	for r := 0; r < ss.rows && !ss.lu.Complete(); r++ {
		if c := ss.rowSlack[r]; c >= 0 && ss.eliminate(c) {
			ss.basis = append(ss.basis, c)
		}
	}
	if !ss.lu.Complete() {
		return false
	}
	ss.etas.Reset()
	for j := range ss.inBasis {
		ss.inBasis[j] = -1
	}
	for i, c := range ss.basis {
		ss.inBasis[c] = i
	}
	ss.computeXB()
	return true
}

// eliminate offers column c to the factors as the next basis column;
// false means it depends on those already accepted.
func (ss *sparseSolve) eliminate(c int) bool {
	ci, cv := ss.col(c)
	if !ss.lu.AddColumn(ci, cv) {
		return false
	}
	ss.crashed++
	return true
}

// refactorize rebuilds the LU factors in place from the current basis
// columns, drops the eta file and recomputes xB from the model rhs. False
// means the basis went numerically singular — the caller abandons to
// cold, so nothing reads the half-built factors.
func (ss *sparseSolve) refactorize() bool {
	ss.lu.Reset(ss.rows, 0)
	for _, c := range ss.basis {
		if !ss.eliminate(c) {
			return false
		}
	}
	ss.etas.Reset()
	ss.computeXB()
	return true
}

// computeXB refreshes the basic solution from the model's current rhs by
// an FTRAN through the factors — the sparse hot path's whole trick.
func (ss *sparseSolve) computeXB() {
	for i := range ss.m.rows {
		ss.bvec[i] = ss.m.rows[i].rhs
	}
	ss.lu.Solve(ss.bvec, ss.xB)
	ss.etas.Apply(ss.xB)
}

// ftranCol computes w = B⁻¹·a_j into ss.w.
func (ss *sparseSolve) ftranCol(j int) []float64 {
	ci, cv := ss.col(j)
	for t, r := range ci {
		ss.wrk[r] += cv[t]
	}
	ss.lu.Solve(ss.wrk, ss.w)
	for _, r := range ci {
		ss.wrk[r] = 0
	}
	ss.etas.Apply(ss.w)
	return ss.w
}

// btranUnit computes ss.rho = row r of B⁻¹ (i.e. Bᵀ·rho = e_r).
func (ss *sparseSolve) btranUnit(r int) []float64 {
	for i := range ss.tmp {
		ss.tmp[i] = 0
	}
	ss.tmp[r] = 1
	ss.etas.ApplyT(ss.tmp)
	ss.lu.SolveT(ss.tmp, ss.rho)
	return ss.rho
}

// btranCosts computes ss.y = Bᵀ⁻¹·c_B, the simplex multipliers for the
// current internal cost row.
func (ss *sparseSolve) btranCosts() []float64 {
	for i, c := range ss.basis {
		ss.tmp[i] = ss.obj[c]
	}
	ss.etas.ApplyT(ss.tmp)
	ss.lu.SolveT(ss.tmp, ss.y)
	return ss.y
}

// objValue returns the current (maximized) objective c_B·xB.
func (ss *sparseSolve) objValue() float64 {
	var s float64
	for i, c := range ss.basis {
		s += ss.obj[c] * ss.xB[i]
	}
	return s
}

// replace swaps the basis column at position pos for column enter, with w
// the entering column's FTRAN image. False means the product-form update
// would be singular (breakdown — abandon to cold).
func (ss *sparseSolve) replace(pos, enter int, w []float64) bool {
	if !ss.etas.Append(pos, w, ss.opts.Tol) {
		return false
	}
	ss.inBasis[ss.basis[pos]] = -1
	ss.basis[pos] = enter
	ss.inBasis[enter] = pos
	return true
}

// dualIterate runs the revised dual simplex under the current cost row,
// which must be dual feasible: it drives negative basic values out —
// the repair needed after an rhs refresh or a basis crash. Bland's
// smallest-index rule engages after stalling so degenerate rhs
// perturbations cannot cycle. Returns Optimal, Infeasible (certificate,
// re-confirmed cold by the caller) or IterationLimit (budget or
// numerical breakdown; the caller abandons).
func (ss *sparseSolve) dualIterate() Status {
	tol := ss.opts.Tol
	bland := ss.opts.Bland
	stall := 0
	lastObj := math.Inf(1)
	for {
		if ss.iters >= ss.opts.MaxIterations {
			return IterationLimit
		}
		leave := -1
		if bland {
			bestCol := ss.ncols
			for r, v := range ss.xB {
				if v < -tol && ss.basis[r] < bestCol {
					leave, bestCol = r, ss.basis[r]
				}
			}
		} else {
			minVal := -tol
			for r, v := range ss.xB {
				if v < minVal {
					leave, minVal = r, v
				}
			}
		}
		if leave < 0 {
			return Optimal
		}
		rho := ss.btranUnit(leave)
		y := ss.btranCosts()
		enter, bestRatio := -1, math.Inf(1)
		for j := 0; j < ss.ncols; j++ {
			if ss.inBasis[j] >= 0 {
				continue
			}
			alpha := ss.colDot(j, rho)
			if alpha >= -tol {
				continue
			}
			z := ss.colDot(j, y) - ss.obj[j] // ≥ -tol by dual feasibility
			if z < 0 {
				z = 0
			}
			if ratio := z / -alpha; ratio < bestRatio {
				enter, bestRatio = j, ratio
			}
		}
		if enter >= 0 && bland {
			// Smallest-index tie-break among the ratio minimizers.
			edge := bestRatio + tol*(1+math.Abs(bestRatio))
			for j := 0; j < enter; j++ {
				if ss.inBasis[j] >= 0 {
					continue
				}
				alpha := ss.colDot(j, rho)
				if alpha >= -tol {
					continue
				}
				z := ss.colDot(j, y) - ss.obj[j]
				if z < 0 {
					z = 0
				}
				if z/-alpha <= edge {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Infeasible
		}
		w := ss.ftranCol(enter)
		piv := w[leave]
		if math.Abs(piv) <= tol {
			return IterationLimit // FTRAN disagrees with pricing: breakdown
		}
		theta := ss.xB[leave] / piv
		for i := range ss.xB {
			ss.xB[i] -= theta * w[i]
		}
		ss.xB[leave] = theta
		if !ss.replace(leave, enter, w) {
			return IterationLimit
		}
		ss.iters++
		if ss.etas.Len() >= sparseRefactorEvery && !ss.refactorize() {
			return IterationLimit
		}
		obj := ss.objValue()
		if obj <= lastObj-tol {
			stall = 0
			lastObj = obj
		} else {
			stall++
			if stall > sparseStallLimit {
				bland = true
			}
		}
	}
}

// primalIterate runs the revised primal simplex with partial pricing
// over the sparse columns, switching to Bland's rule after stalling.
func (ss *sparseSolve) primalIterate() Status {
	tol := ss.opts.Tol
	bland := ss.opts.Bland
	stall := 0
	lastObj := math.Inf(-1)
	for {
		if ss.iters >= ss.opts.MaxIterations {
			return IterationLimit
		}
		y := ss.btranCosts()
		enter := ss.price(y, bland, tol)
		if enter < 0 {
			return Optimal
		}
		w := ss.ftranCol(enter)
		leave, bestRatio := -1, math.Inf(1)
		for i, wi := range w {
			if wi <= tol {
				continue
			}
			ratio := ss.xB[i] / wi
			if ratio < bestRatio-tol {
				leave, bestRatio = i, ratio
				continue
			}
			if ratio <= bestRatio+tol && leave >= 0 {
				// Tie-break: Bland takes the smallest basic column index
				// (termination); otherwise the larger pivot wins (stability).
				if bland {
					if ss.basis[i] < ss.basis[leave] {
						leave, bestRatio = i, ratio
					}
				} else if wi > w[leave] {
					leave, bestRatio = i, ratio
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		piv := w[leave]
		theta := ss.xB[leave] / piv
		for i := range ss.xB {
			ss.xB[i] -= theta * w[i]
		}
		ss.xB[leave] = theta
		if !ss.replace(leave, enter, w) {
			return IterationLimit
		}
		ss.iters++
		if ss.etas.Len() >= sparseRefactorEvery && !ss.refactorize() {
			return IterationLimit
		}
		obj := ss.objValue()
		if obj >= lastObj+tol {
			stall = 0
			lastObj = obj
		} else {
			stall++
			if stall > sparseStallLimit {
				bland = true
			}
		}
	}
}

// price returns the entering column, or -1 at optimality. The default
// mode is partial (cyclic block) pricing: scan blocks of columns from a
// persistent cursor and take the best violator in the first block that
// has one, falling through to a full sweep before declaring optimality.
// Bland mode scans from column 0 for the smallest violating index.
func (ss *sparseSolve) price(y []float64, bland bool, tol float64) int {
	if bland {
		for j := 0; j < ss.ncols; j++ {
			if ss.inBasis[j] >= 0 {
				continue
			}
			if ss.obj[j]-ss.colDot(j, y) > tol {
				return j
			}
		}
		return -1
	}
	span := ss.ncols / 16
	if span < 128 {
		span = 128
	}
	best, bestD := -1, tol
	j := ss.cursor
	if j >= ss.ncols {
		j = 0
	}
	for scanned := 0; scanned < ss.ncols; {
		if ss.inBasis[j] < 0 {
			if d := ss.obj[j] - ss.colDot(j, y); d > bestD {
				best, bestD = j, d
			}
		}
		scanned++
		j++
		if j == ss.ncols {
			j = 0
		}
		if best >= 0 && scanned%span == 0 {
			break
		}
	}
	ss.cursor = j
	return best
}

// extract reads the structural solution out of the basic values, with the
// same tiny-negative clamp as the dense tableau.
func (ss *sparseSolve) extract() []float64 {
	x := make([]float64, ss.n)
	for i, c := range ss.basis {
		if c < ss.n {
			v := ss.xB[i]
			if v < 0 && v > -ss.opts.Tol*10 {
				v = 0
			}
			x[c] = v
		}
	}
	return x
}

// duals recovers the per-row shadow prices from the simplex multipliers
// under the true costs: y solves Bᵀy = c_B, reported in the model's own
// optimization direction (matching the dense marker-column recovery).
func (ss *sparseSolve) duals() []float64 {
	y := ss.btranCosts()
	d := ss.dir()
	out := make([]float64, ss.rows)
	for i := range out {
		out[i] = d * y[i]
	}
	return out
}

func (ss *sparseSolve) model() *Model { return ss.m }

func (ss *sparseSolve) pivots() int { return ss.iters }

func (ss *sparseSolve) crashPivots() int { return ss.crashed }

// rearm refreshes the basic solution for the new rhs by one FTRAN through
// the retained factors. Where the dense kernel sheds drift by being
// dropped, a stale sparse one refactorizes in place — an O(fill)
// operation.
func (ss *sparseSolve) rearm(m *Model, opts Options, stale bool) bool {
	ss.m = m
	ss.opts = opts.withDefaults(ss.rows, ss.n)
	ss.iters, ss.crashed = 0, 0
	if stale {
		return ss.refactorize() // ends in computeXB
	}
	ss.computeXB()
	return true
}

// exportBasis names the basic columns; sparse bases hold only structural
// and slack columns by construction, so they are always representable.
func (ss *sparseSolve) exportBasis() (*Basis, bool) {
	b := emptyBasis(ss.basis, ss.n)
	for _, c := range ss.basis {
		if c < ss.n {
			b.vars = append(b.vars, ss.m.names[c])
		} else {
			b.slackRows = append(b.slackRows, ss.m.rows[ss.slackRow[c-ss.n]].name)
		}
	}
	return b, true
}
