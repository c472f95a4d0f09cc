package lp

import (
	"math"
	"slices"

	"profitlb/internal/linalg"
)

// sparseMinRows is the row count from which a Solver's warm rungs run on
// the LU kernel below; smaller LPs stay on the dense warm tableau. It is
// the smallest size in BenchmarkKernelCrossover's sweep from which the LU
// kernel wins both a hot re-solve and a seeded import (DESIGN §12.1 has the
// table and the end-to-end runs on either side of it). The cold anchor is
// dense at every size.
const sparseMinRows = 32

// sparseRefactorEvery bounds the product-form eta file: once this many
// updates accumulate on top of the LU factors, the basis is refactorized
// from scratch so solve cost and floating-point drift stay bounded.
const sparseRefactorEvery = 100

// sparseStallLimit mirrors the dense stall→Bland switch: after this many
// pivots without objective progress the sparse iterations fall back to
// Bland's smallest-index rule, which cannot cycle.
const sparseStallLimit = 64

// sparseSolve is the revised-simplex working state: the constraint matrix
// in compressed sparse-column form (structural columns then one slack or
// surplus column per inequality row, rows unflipped) and once more by row,
// an LU-factorized basis with a product-form eta file on top, the basic
// solution xB indexed by basis position and the reduced costs d of the
// non-basic columns. No quadratic state exists, and a pivot costs the
// non-zeros it touches: the entering column's FTRAN image and the leaving
// row of B⁻¹ come back from the factors with their non-zero lists, the
// pivot row is gathered from that row's few matrix rows, and the ratio
// tests, the xB, reduced-cost and objective updates and the eta append walk
// those lists. What is still dense is per solve, not per pivot: computeXB
// and reprice.
type sparseSolve struct {
	m    *Model
	opts Options

	n     int // structural variable count
	rows  int
	ncols int // structural + slack/surplus

	// CSC storage of the full column set, and the same entries by row.
	ptr, rptr []int
	ind, rind []int
	val, rval []float64

	rowSlack []int // row -> slack column, -1 for EQ rows
	slackRow []int // slack column - n -> row

	obj []float64 // internal maximization costs per column (dir·c, slacks 0)
	// d[j] = obj[j] − a_jᵀy is column j's reduced cost, exactly 0 while j
	// is basic. reprice computes d and the multipliers y from scratch; a
	// pivot updates d from its pivot row and leaves y behind. optimal says
	// that reprice found no d above the tolerance and no pivot has been made
	// since: the one state optimality is declared in. Costs and d outlive
	// the solve: the next slot's dual repair runs under them.
	d       []float64
	optimal bool
	objv    float64 // objective change carried across a phase's pivots, for the stall test

	basis   []int // basis position -> column
	inBasis []int // column -> basis position, -1 when nonbasic
	xB      []float64

	iters     int
	crashed   int // columns importBasis eliminated into lu, outside iters
	refactors int // refactorizations since rearm or import
	cursor    int // partial-pricing scan position
	walked    walked

	sparseArena
}

// walked sums, over a solve's pivots, the lengths of the three lists a
// pivot walks — the FTRAN image, the row of B⁻¹ and the pivot row. Only
// TestHotPivotWorkIsSparse reads it.
type walked struct{ image, rho, row int }

// sparseArena is the part of a sparseSolve that outlives a solve: the two
// slabs every array above is cut from, the factors, eta file and work
// vectors (each recycling its own storage) and the seed-resolution scratch.
// A Solver keeps one kernel and newSparseSolveIn rebuilds it in place.
type sparseArena struct {
	ints   []int
	floats []float64
	lu     linalg.SparseLU
	etas   linalg.EtaFile
	seed   []int
	// w is the entering column's FTRAN image (by basis position), unit a
	// BTRAN's right-hand side (e_r, or c_B), rho the row of B⁻¹ and y the
	// multipliers those yield (by row) and alpha the pivot row rhoᵀA (by
	// column).
	w, unit, rho, y, alpha linalg.SparseVec
}

// carve cuts the next n entries off slab.
func carve[T any](slab *[]T, n int) []T {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// newSparseSolveIn builds the CSC and CSR representations and scratch state
// for m in ss's arena (a fresh kernel when ss is nil). The basis is
// established later by importBasis.
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
	// ints: ptr, rptr, ind, rind, rowSlack, slackRow, count, basis, inBasis;
	// floats: val, rval, obj, d, xB — every carve below.
	ss.ints = zeroed(ss.ints, 3*ss.ncols+2+2*nnz+3*rows+slacks)
	ss.floats = zeroed(ss.floats, 2*nnz+2*ss.ncols+rows)
	ints, floats := ss.ints, ss.floats
	ss.ptr, ss.ind, ss.val = carve(&ints, ss.ncols+1), carve(&ints, nnz), carve(&floats, nnz)
	ss.rptr, ss.rind, ss.rval = carve(&ints, rows+1), carve(&ints, nnz), carve(&floats, nnz)
	ss.rowSlack, ss.slackRow = carve(&ints, rows), carve(&ints, slacks)

	// Column counting pass, then fill; the rows arrive row by row, so the
	// CSR copy fills in the same walk. Duplicate terms are kept as-is: every
	// consumer (LU, pricing, FTRAN scatter, pivot row) accumulates.
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
	at := 0
	put := func(i, c int, v float64) {
		ss.ind[count[c]], ss.val[count[c]] = i, v
		count[c]++
		ss.rind[at], ss.rval[at] = c, v
		at++
	}
	for i := range m.rows {
		for _, t := range m.rows[i].terms {
			put(i, t.Var, t.Coef)
		}
		if c := ss.rowSlack[i]; c >= 0 {
			v := 1.0
			if m.rows[i].sense == GE {
				v = -1.0
			}
			put(i, c, v)
		}
		ss.rptr[i+1] = at
	}

	ss.obj, ss.d = carve(&floats, ss.ncols), carve(&floats, ss.ncols)
	ss.basis = carve(&ints, rows)[:0]
	ss.inBasis = carve(&ints, ss.ncols)
	for j := range ss.inBasis {
		ss.inBasis[j] = -1
	}
	ss.xB = carve(&floats, rows)
	for _, v := range []*linalg.SparseVec{&ss.w, &ss.unit, &ss.rho, &ss.y} {
		v.Reset(rows)
	}
	ss.alpha.Reset(ss.ncols)
	return ss
}

func (ss *sparseSolve) col(j int) ([]int, []float64) {
	return ss.ind[ss.ptr[j]:ss.ptr[j+1]], ss.val[ss.ptr[j]:ss.ptr[j+1]]
}

func (ss *sparseSolve) dir() float64 {
	if ss.m.minimize {
		return -1
	}
	return 1
}

// priceIn loads the internal maximization costs from the current model and
// prices every column under them.
func (ss *sparseSolve) priceIn() {
	d := ss.dir()
	for v := 0; v < ss.n; v++ {
		ss.obj[v] = d * ss.m.obj[v]
	}
	for v := ss.n; v < ss.ncols; v++ {
		ss.obj[v] = 0
	}
	ss.reprice()
}

// reprice computes the simplex multipliers y = Bᵀ⁻¹·c_B and every
// non-basic reduced cost from scratch under the costs in place: a BTRAN
// from the basic columns that carry a cost, then one pass over the matrix
// by column (y is short enough to stay in cache, so this beats following
// y's non-zeros along the rows even when they are few). Run once per cost
// change, per refactorization and before optimality is declared, never per
// pivot.
func (ss *sparseSolve) reprice() {
	ss.y.Clear()
	for i, c := range ss.basis {
		if v := ss.obj[c]; v != 0 {
			ss.unit.Set(i, v)
		}
	}
	ss.etas.ApplyT(&ss.unit)
	ss.lu.SolveT(&ss.unit, &ss.y)
	// The columns are walked off ptr directly (at two or three entries a
	// column, slice headers would cost more than the products), and optimal
	// is price's own test, so a pricing sweep of these d would agree with it.
	y, at, tol := ss.y.Val, 0, ss.opts.Tol
	ss.optimal = true
	for j, end := range ss.ptr[1:] {
		var s float64
		if ss.inBasis[j] < 0 {
			for p := at; p < end; p++ {
				s += ss.val[p] * y[ss.ind[p]]
			}
			if s = ss.obj[j] - s; s > tol {
				ss.optimal = false
			}
		}
		ss.d[j], at = s, end
	}
}

// importBasis assembles the starting basis and its basic solution: seed
// members first (unknown names and linearly dependent columns dropped,
// exactly like the dense import), then slack columns until every row is
// covered — with no seed at all, the all-slack basis. It fails — sending
// the caller to the cold path — when no complete basis emerges (e.g. an
// EQ row no seed column covers). The costs of a fresh kernel are zero, and
// so are its multipliers and reduced costs: the trivially dual-feasible
// row the repair phase needs.
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
	ss.crashed = len(ss.basis)
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
	return ss.lu.AddColumn(ci, cv)
}

// refactorize rebuilds the LU factors in place from the current basis
// columns, drops the eta file, and recomputes xB from the model rhs and
// the reduced costs from the costs in place, shedding what the updates
// accumulated. False means the basis went numerically singular — the
// caller abandons to cold, so nothing reads the half-built factors.
func (ss *sparseSolve) refactorize() bool {
	ss.refactors++
	ss.lu.Reset(ss.rows, 0)
	for _, c := range ss.basis {
		if !ss.eliminate(c) {
			return false
		}
	}
	ss.etas.Reset()
	ss.computeXB()
	ss.reprice()
	return true
}

// computeXB refreshes the basic solution from the model's current rhs by
// an FTRAN through the factors — the sparse hot path's whole trick.
func (ss *sparseSolve) computeXB() {
	for i := range ss.m.rows {
		ss.xB[i] = ss.m.rows[i].rhs
	}
	ss.lu.Solve(ss.xB, ss.xB)
	ss.etas.Apply(ss.xB)
}

// ftranCol computes ss.w = B⁻¹·a_j, listed in ascending position order: the
// order a scan over all rows met the non-zeros in, so the ratio test's
// tolerance ties and the eta's entries do not depend on the order the
// factors' DFS found them.
func (ss *sparseSolve) ftranCol(j int) *linalg.SparseVec {
	ci, cv := ss.col(j)
	ss.w.Clear()
	ss.lu.SolveSparse(ci, cv, &ss.w)
	ss.etas.ApplySparse(&ss.w)
	slices.Sort(ss.w.Ind)
	return &ss.w
}

// btranUnit computes ss.rho = row r of B⁻¹ (i.e. Bᵀ·rho = e_r).
func (ss *sparseSolve) btranUnit(r int) {
	ss.rho.Clear()
	ss.unit.Set(r, 1)
	ss.etas.ApplyT(&ss.unit)
	ss.lu.SolveT(&ss.unit, &ss.rho)
}

// pivotRow gathers ss.alpha = rhoᵀ·A, the pivot row of the position
// btranUnit was last asked for, from rho's non-zero rows of the matrix,
// basic columns included.
func (ss *sparseSolve) pivotRow() *linalg.SparseVec {
	ss.alpha.Clear()
	for _, i := range ss.rho.Ind {
		ri := ss.rho.Val[i]
		for p := ss.rptr[i]; p < ss.rptr[i+1]; p++ {
			ss.alpha.Add(ss.rind[p], ri*ss.rval[p])
		}
	}
	return &ss.alpha
}

// pivot swaps column enter into basis position leave, given enter's FTRAN
// image in ss.w and row leave of B⁻¹ in ss.rho: it steps xB and the carried
// objective along the image and the reduced costs along the pivot row —
// d ← d − step·rhoᵀ·A, taken straight off rho's rows of the matrix, and not
// at all when the entering reduced cost is zero, as all are after a crash —
// appends the eta and refactorizes when the file is full. False means the
// product-form update would be singular or the refactorization failed
// (breakdown — abandon to cold).
func (ss *sparseSolve) pivot(leave, enter int) bool {
	w, piv := &ss.w, ss.w.Val[leave]
	theta := ss.xB[leave] / piv
	for _, i := range w.Ind {
		ss.xB[i] -= theta * w.Val[i]
	}
	ss.xB[leave] = theta
	ss.objv += theta * ss.d[enter]
	if step := ss.d[enter] / piv; step != 0 {
		for _, i := range ss.rho.Ind {
			si := step * ss.rho.Val[i]
			for p := ss.rptr[i]; p < ss.rptr[i+1]; p++ {
				if j := ss.rind[p]; ss.inBasis[j] < 0 {
					ss.d[j] -= si * ss.rval[p]
				}
			}
			ss.walked.row += ss.rptr[i+1] - ss.rptr[i]
		}
		ss.d[ss.basis[leave]] = -step
	}
	ss.d[enter] = 0
	ss.optimal = false
	if !ss.etas.Append(leave, w, ss.opts.Tol) {
		return false
	}
	ss.inBasis[ss.basis[leave]] = -1
	ss.basis[leave] = enter
	ss.inBasis[enter] = leave
	ss.iters++
	ss.walked.image += len(w.Ind)
	ss.walked.rho += len(ss.rho.Ind)
	return ss.etas.Len() < sparseRefactorEvery || ss.refactorize()
}

// stalled is the anti-cycling progress test both phases share: sign is +1
// where the objective must rise (primal), -1 where it must fall (dual).
// It reports whether the pivot just made leaves the phase past
// sparseStallLimit pivots without progress.
func (ss *sparseSolve) stalled(sign float64, last *float64, stall *int) bool {
	if sign*(ss.objv-*last) >= ss.opts.Tol {
		*stall, *last = 0, ss.objv
		return false
	}
	*stall++
	return *stall > sparseStallLimit
}

// dualIterate runs the revised dual simplex under the current cost row,
// which must be dual feasible: it drives negative basic values out —
// the repair needed after an rhs refresh or a basis crash. The ratio test
// reads the pivot row's non-zeros and the reduced costs in place. Bland's
// smallest-index rule engages after stalling so degenerate rhs
// perturbations cannot cycle. Returns Optimal, Infeasible (certificate,
// re-confirmed cold by the caller) or IterationLimit (budget or
// numerical breakdown; the caller abandons).
func (ss *sparseSolve) dualIterate() Status {
	tol := ss.opts.Tol
	bland := ss.opts.Bland
	stall := 0
	ss.objv = 0
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
		ss.btranUnit(leave)
		alpha := ss.pivotRow()
		// ratio is column j's dual ratio, +Inf where j may not enter.
		ratio := func(j int) float64 {
			a := alpha.Val[j]
			if ss.inBasis[j] >= 0 || a >= -tol {
				return math.Inf(1)
			}
			return max(-ss.d[j], 0) / -a // −d ≥ −tol by dual feasibility
		}
		// The smallest ratio enters, the smallest column among equals — what
		// an ascending scan of all columns for a strict minimum returns.
		enter, bestRatio := -1, math.Inf(1)
		for _, j := range alpha.Ind {
			if r := ratio(j); r < bestRatio || (r == bestRatio && j < enter) {
				enter, bestRatio = j, r
			}
		}
		if enter >= 0 && bland {
			// Smallest-index tie-break among the ratio minimizers.
			edge := bestRatio + tol*(1+math.Abs(bestRatio))
			for _, j := range alpha.Ind {
				if j < enter && ratio(j) <= edge {
					enter = j
				}
			}
		}
		if enter < 0 {
			return Infeasible
		}
		if math.Abs(ss.ftranCol(enter).Val[leave]) <= tol {
			return IterationLimit // FTRAN disagrees with pricing: breakdown
		}
		if !ss.pivot(leave, enter) {
			return IterationLimit
		}
		if ss.stalled(-1, &lastObj, &stall) {
			bland = true
		}
	}
}

// primalIterate runs the revised primal simplex with partial pricing
// over the reduced costs in place, switching to Bland's rule after
// stalling. Optimal is declared only on freshly computed reduced costs:
// when the updated ones show no violator they are recomputed, and either
// that pass saw none above the tolerance or pricing goes on.
func (ss *sparseSolve) primalIterate() Status {
	tol := ss.opts.Tol
	bland := ss.opts.Bland
	stall := 0
	ss.objv = 0
	lastObj := math.Inf(-1)
	for {
		if ss.iters >= ss.opts.MaxIterations {
			return IterationLimit
		}
		if ss.optimal {
			return Optimal
		}
		enter := ss.price(bland, tol)
		if enter < 0 {
			ss.reprice()
			continue
		}
		w := ss.ftranCol(enter)
		leave, bestRatio := -1, math.Inf(1)
		for _, i := range w.Ind {
			wi := w.Val[i]
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
				} else if wi > w.Val[leave] {
					leave, bestRatio = i, ratio
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		ss.btranUnit(leave)
		if !ss.pivot(leave, enter) {
			return IterationLimit
		}
		if ss.stalled(1, &lastObj, &stall) {
			bland = true
		}
	}
}

// price returns the entering column, or -1 when no reduced cost in place
// exceeds tol (a basic column's is exactly 0). The default mode is partial
// (cyclic block) pricing: scan blocks of columns from a persistent cursor
// and take the best violator in the first block that has one, falling
// through to a full sweep. Bland mode scans from column 0 for the smallest
// violating index.
func (ss *sparseSolve) price(bland bool, tol float64) int {
	if bland {
		for j, d := range ss.d {
			if d > tol {
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
	for left := ss.ncols; left > 0 && best < 0; {
		// One block, in the straight runs either side of the wrap.
		for n := min(span, left); n > 0; {
			run := ss.d[j:min(j+n, ss.ncols)]
			for i, d := range run {
				if d > bestD {
					best, bestD = j+i, d
				}
			}
			n, left, j = n-len(run), left-len(run), (j+len(run))%ss.ncols
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

// duals reports the per-row shadow prices: the simplex multipliers y under
// the true costs, which the reprice that declared optimality left in
// place, in the model's own optimization direction (matching the dense
// marker-column recovery).
func (ss *sparseSolve) duals() []float64 {
	d := ss.dir()
	out := make([]float64, ss.rows)
	for i := range out {
		out[i] = d * ss.y.Val[i]
	}
	return out
}

func (ss *sparseSolve) model() *Model { return ss.m }

func (ss *sparseSolve) pivots() int { return ss.iters }

func (ss *sparseSolve) crashWork() (crashed, refactors int) { return ss.crashed, ss.refactors }

// rearm refreshes the basic solution for the new rhs by one FTRAN through
// the retained factors; costs and reduced costs stay as the last solve
// left them. Where the dense kernel sheds drift by being dropped, a stale
// sparse one refactorizes in place — an O(fill) operation.
func (ss *sparseSolve) rearm(m *Model, opts Options, stale bool) bool {
	ss.m = m
	ss.opts = opts.withDefaults(ss.rows, ss.n)
	ss.iters, ss.crashed, ss.refactors = 0, 0, 0
	ss.walked = walked{}
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
