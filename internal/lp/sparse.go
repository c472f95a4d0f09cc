package lp

import (
	"math"
	"math/bits"
	"slices"

	"profitlb/internal/linalg"
)

// sparseMinRows is the row count from which a Solver's warm rungs run on
// the LU kernel below, a fresh start included; smaller LPs start cold and
// re-solve on the dense warm tableau. It is the smallest size in
// BenchmarkKernelCrossover's sweep from which the LU kernel wins a hot
// re-solve (DESIGN §12.1 has the table and the end-to-end runs on either
// side of it). The cold anchor is dense at every size.
const sparseMinRows = 32

// sparseRefactorEvery bounds the product-form eta file once the costs are
// priced in: when this many updates accumulate on top of the LU factors,
// the basis is refactorized from scratch so solve cost and floating-point
// drift stay bounded. The zero-cost repair before that runs to a longer
// bound (etaBound).
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
// those lists. What is still dense: computeXB and reprice, once per solve
// or factorization, and the dual leaving scan of Dantzig's rule, which
// Bland's replaces by a violator set the pivots keep (see blandLeaving).
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

	obj []float64 // internal maximization costs per column (dir·c, slacks 0)
	// d[j] = obj[j] − a_jᵀy is column j's reduced cost, exactly 0 while j
	// is basic. reprice computes d and the multipliers y from scratch; a
	// pivot updates d from its pivot row and leaves y behind. optimal says
	// that reprice found no d above the tolerance and no pivot has been made
	// since: the one state optimality is declared in. Costs and d outlive
	// the solve: the next slot's dual repair runs under them. priced says
	// priceIn has run since the crash; until then costs, y and d are all
	// zero, and a refactorization has nothing to reprice.
	d       []float64
	optimal bool
	priced  bool
	objv    float64 // objective change carried across a phase's pivots, for the stall test
	cut     float64 // the basic objective that stopped the last repair (bound)

	basis   []int // basis position -> column
	inBasis []int // column -> basis position, -1 when nonbasic
	xB      []float64

	iters     int
	crashed   int // columns crash eliminated into lu, outside iters
	refactors int // refactorizations since rearm or crash
	cursor    int // partial-pricing scan position
	walked    walked
	// held says the factors are a checkpoint's (see Solver.Trial): a pivot
	// that would refactorize them breaks the trial off instead.
	held     bool
	factored int // factorizations made: which a saved state shares

	// onBland, nil outside tests, sees every dual leaving choice made under
	// Bland's rule (see blandLeaving); it outlives newSparseSolveIn.
	onBland func(leave int, up bool)

	sparseArena
}

// walked sums, over a solve's pivots, the lengths of the three lists a
// pivot walks — the FTRAN image, the row of B⁻¹ and the pivot row — and,
// over its dual leaving choices under Bland's rule, how many were made and
// the entries they read: the violator set's words and the rows it was
// built or kept from. ftran and btran count the eta updates the sparse
// FTRANs and BTRANs visited and, of those, applied. Only
// TestHotPivotWorkIsSparse and TestFreshStartWorkIsSparse read it.
type walked struct {
	image, rho, row, bland, blandReads int
	ftran, btran                       etaWork
}

// etaWork is the eta updates a kind of walk visited and applied.
type etaWork struct{ visited, applied int }

func (w *etaWork) add(visited, applied int) {
	w.visited, w.applied = w.visited+visited, w.applied+applied
}

// sparseArena is the part of a sparseSolve that outlives a solve: the two
// slabs every array above is cut from and the factors, eta file and work
// vectors (each recycling its own storage). A Solver keeps one kernel and
// newSparseSolveIn rebuilds it in place.
type sparseArena struct {
	ints   []int
	floats []float64
	lu     linalg.SparseLU
	etas   linalg.EtaFile
	// w is the entering column's FTRAN image (by basis position), unit a
	// BTRAN's right-hand side (e_r, or c_B), rho the row of B⁻¹ and y the
	// multipliers those yield (by row) and alpha the pivot row rhoᵀA (by
	// column).
	w, unit, rho, y, alpha linalg.SparseVec
	// violators is the dual simplex's leaving candidates under Bland's
	// rule, by basic column (see blandLeaving).
	violators colSet
}

// colSet is a set of columns: a bitmap, and over it a summary bitmap with
// a bit set for every non-zero word, so the smallest member costs one read
// per 4 096 columns and one more.
type colSet struct{ words, sum []uint64 }

// reset empties the set and sizes it for n columns.
func (s *colSet) reset(n int) {
	s.words = zeroed(s.words, (n+63)/64)
	s.sum = zeroed(s.sum, (len(s.words)+63)/64)
}

// put adds column c to the set (in) or takes it out.
func (s *colSet) put(c int, in bool) {
	w, b := c>>6, uint64(1)<<(c&63)
	if in {
		s.words[w] |= b
		s.sum[w>>6] |= 1 << (w & 63)
	} else if s.words[w] &^= b; s.words[w] == 0 {
		s.sum[w>>6] &^= 1 << (w & 63)
	}
}

// min returns the smallest member, -1 when the set is empty, and how many
// words it read.
func (s *colSet) min() (c, reads int) {
	for i, sw := range s.sum {
		if sw != 0 {
			w := i<<6 + bits.TrailingZeros64(sw)
			return w<<6 + bits.TrailingZeros64(s.words[w]), i + 2
		}
	}
	return -1, len(s.sum)
}

// newSparseSolveIn builds the CSC and CSR representations and scratch state
// for m in ss's arena (a fresh kernel when ss is nil). The basis is
// established later by crash.
func newSparseSolveIn(m *Model, opts Options, ss *sparseSolve) *sparseSolve {
	if ss == nil {
		ss = new(sparseSolve)
	}
	n := len(m.names)
	rows := len(m.rows)
	*ss = sparseSolve{m: m, n: n, rows: rows, onBland: ss.onBland, sparseArena: ss.sparseArena}
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
	// ints: ptr, rptr, ind, rind, rowSlack, count, basis, inBasis; floats:
	// val, rval, obj, d, xB — every carve below.
	ss.ints = zeroed(ss.ints, 3*ss.ncols+2+2*nnz+3*rows)
	ss.floats = zeroed(ss.floats, 2*nnz+2*ss.ncols+rows)
	ints, floats := ss.ints, ss.floats
	ss.ptr, ss.ind, ss.val = linalg.Carve(&ints, ss.ncols+1), linalg.Carve(&ints, nnz), linalg.Carve(&floats, nnz)
	ss.rptr, ss.rind, ss.rval = linalg.Carve(&ints, rows+1), linalg.Carve(&ints, nnz), linalg.Carve(&floats, nnz)
	ss.rowSlack = linalg.Carve(&ints, rows)

	// Column counting pass, then fill; the rows arrive row by row, so the
	// CSR copy fills in the same walk. Duplicate terms are kept as-is: every
	// consumer (LU, pricing, FTRAN scatter, pivot row) accumulates.
	count := linalg.Carve(&ints, ss.ncols)
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

	ss.obj, ss.d = linalg.Carve(&floats, ss.ncols), linalg.Carve(&floats, ss.ncols)
	ss.basis = linalg.Carve(&ints, rows)[:0]
	ss.inBasis = linalg.Carve(&ints, ss.ncols)
	for j := range ss.inBasis {
		ss.inBasis[j] = -1
	}
	ss.xB = linalg.Carve(&floats, rows)
	for _, v := range []*linalg.SparseVec{&ss.w, &ss.unit, &ss.rho, &ss.y} {
		v.Reset(rows)
	}
	ss.alpha.Reset(ss.ncols)
	return ss
}

func (ss *sparseSolve) col(j int) ([]int, []float64) {
	return ss.ind[ss.ptr[j]:ss.ptr[j+1]], ss.val[ss.ptr[j]:ss.ptr[j+1]]
}

// priceIn loads the internal maximization costs from the current model and
// prices every column under them.
//
// The eta file drops the index the repair walked (see etaBound), and one
// the repair left past sparseRefactorEvery is refactorized away instead of
// repriced, so every priced pivot runs on that bound; false means the
// refactorization failed.
func (ss *sparseSolve) priceIn() bool {
	ss.priced = true
	ss.etas.Index(false, ss.rows)
	d := ss.m.dir()
	for v := 0; v < ss.n; v++ {
		ss.obj[v] = d * ss.m.obj[v]
	}
	for v := ss.n; v < ss.ncols; v++ {
		ss.obj[v] = 0
	}
	if ss.etas.Len() > sparseRefactorEvery {
		return ss.refactorize()
	}
	ss.reprice()
	return true
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
	ss.btranEtas()
	ss.lu.SolveT(&ss.unit, &ss.y)
	// The columns are walked off ptr directly (at two or three entries a
	// column, slice headers would cost more than the products), and optimal
	// is price's own test, so a pricing sweep of these d would agree with it.
	y, at, tol, fixed := ss.y.Val, 0, ss.opts.Tol, ss.m.fixed
	ss.optimal = true
	for j, end := range ss.ptr[1:] {
		var s float64
		if ss.inBasis[j] < 0 {
			for p := at; p < end; p++ {
				s += ss.val[p] * y[ss.ind[p]]
			}
			if s = ss.obj[j] - s; s > tol && !fixed.has(j) {
				ss.optimal = false
			}
		}
		ss.d[j], at = s, end
	}
}

// crash assembles the starting basis and its basic solution: cols first
// (linearly dependent ones dropped, exactly like the dense crash), then
// slack columns until every row is covered — with no cols, the all-slack
// basis. It fails — sending the caller to the cold path — when no complete
// basis emerges (e.g. an EQ row no column covers). The costs of a fresh
// kernel are zero, and so are its multipliers and reduced costs: the
// trivially dual-feasible row the repair phase needs.
func (ss *sparseSolve) crash(cols []int) bool {
	ss.lu.Reset(ss.rows, crashPivTol)
	ss.basis = ss.basis[:0]
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
	ss.etas.Index(ss.etaBound() > sparseRefactorEvery, ss.rows)
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
// columns, drops the eta file, and recomputes xB from the model rhs and —
// once priced, the zero costs of a crash having none to give — the reduced
// costs from the costs in place, shedding what the updates accumulated.
// False means the basis went numerically singular — the caller abandons to
// cold, so nothing reads the half-built factors.
func (ss *sparseSolve) refactorize() bool {
	ss.refactors++
	ss.factored++
	ss.lu.Reset(ss.rows, 0)
	for _, c := range ss.basis {
		if !ss.eliminate(c) {
			return false
		}
	}
	ss.etas.Reset()
	ss.computeXB()
	if ss.priced {
		ss.reprice()
	}
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
	ss.walked.ftran.add(ss.etas.ApplySparse(&ss.w))
	slices.Sort(ss.w.Ind)
	return &ss.w
}

// btranUnit computes ss.rho = row r of B⁻¹ (i.e. Bᵀ·rho = e_r).
func (ss *sparseSolve) btranUnit(r int) {
	ss.rho.Clear()
	ss.unit.Set(r, 1)
	ss.btranEtas()
	ss.lu.SolveT(&ss.unit, &ss.rho)
}

// btranEtas runs ss.unit through the eta file, the head of a BTRAN.
func (ss *sparseSolve) btranEtas() { ss.walked.btran.add(ss.etas.ApplyT(&ss.unit)) }

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
	return ss.etas.Len() < ss.etaBound() || !ss.held && ss.refactorize()
}

// etaBound is the eta file's length at which a pivot refactorizes:
// sparseRefactorEvery once priced, and before that, in a crash's zero-cost
// repair, a quarter of the rows where that is longer. Such a repair's
// updates carry an entry or two, and a file allowed past
// sparseRefactorEvery keeps its position index (from crash to priceIn),
// so an FTRAN or BTRAN visits the few updates that act rather than the
// whole file, and a longer file costs less than the refactorizations it
// saves. A priced update carries tens of entries: there the index would
// not pay, and the priced bound stays. DESIGN §12.2 has the measurements
// behind both choices and behind a quarter rather than all of the rows.
func (ss *sparseSolve) etaBound() int {
	if ss.priced {
		return sparseRefactorEvery
	}
	return max(sparseRefactorEvery, ss.rows/4)
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
// perturbations cannot cycle; a crash's zero-cost repair never moves the
// objective, so from its 65th pivot on it is Bland's, and there the
// leaving choice reads a violator set the pivots keep rather than every
// row. Returns Optimal, Infeasible (certificate,
// re-confirmed cold by the caller), IterationLimit (budget or numerical
// breakdown; the caller abandons) or, under a cutoff, Cutoff: the basic
// objective, c_B·xB once and then carried along with objv, fell below it.
func (ss *sparseSolve) dualIterate(cutoff float64) Status {
	tol := ss.opts.Tol
	bland := ss.opts.Bland
	fixed := ss.m.fixed
	stall := 0
	ss.objv = 0
	lastObj := math.Inf(1)
	cuts, base := !math.IsInf(cutoff, -1), 0.0
	if cuts {
		for i, c := range ss.basis {
			base += ss.obj[c] * ss.xB[i]
		}
	}
	kept := -1 // the factorization ss.violators was built under
	for {
		if ss.iters >= ss.opts.MaxIterations {
			return IterationLimit
		}
		var leave int
		var up bool
		if bland {
			leave, up = ss.blandLeaving(&kept, tol)
		} else {
			leave, up = ss.leaving(tol)
		}
		if leave < 0 {
			return Optimal
		}
		if cuts {
			if ss.cut = base + ss.objv; ss.cut < cutoff {
				return Cutoff
			}
		}
		ss.btranUnit(leave)
		alpha := ss.pivotRow()
		// ratio is column j's dual ratio, +Inf where j may not enter. A
		// fixed basic above 0 leaves at its upper bound 0 through the pivot
		// row with its sign flipped (the dense kernel's rule).
		ratio := func(j int) float64 {
			a := alpha.Val[j]
			if up {
				a = -a
			}
			if ss.inBasis[j] >= 0 || a >= -tol || fixed.has(j) {
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
		out := ss.basis[leave]
		if !ss.pivot(leave, enter) {
			return IterationLimit
		}
		if bland && kept == ss.factored {
			ss.keepViolators(leave, out, tol)
		}
		if ss.stalled(-1, &lastObj, &stall) {
			bland = true
		}
	}
}

// leaving is the dual simplex's leaving position under Dantzig's rule: the
// most negative basic value — or, on a model with pins, a fixed basic
// further above zero than that is below, which leaves at its upper bound 0
// (up). The pinned
// pass is a second scan, so an unpinned model's scan tests nothing more. A
// hot re-solve makes a few dual pivots, so a kept order would cost what
// this scan does (DESIGN §12.2).
func (ss *sparseSolve) leaving(tol float64) (leave int, up bool) {
	fixed := ss.m.fixed
	leave = -1
	minVal := -tol
	for r, v := range ss.xB {
		if v < minVal {
			leave, minVal = r, v
		}
	}
	if len(fixed) > 0 {
		for r, v := range ss.xB {
			if v > -minVal && fixed.has(ss.basis[r]) {
				leave, minVal, up = r, -v, true
			}
		}
	}
	return leave, up
}

// violates reports whether basis position r is a dual leaving candidate:
// its value below −tol, or a fixed column's above tol.
func (ss *sparseSolve) violates(r int, tol float64) bool {
	v := ss.xB[r]
	return v < -tol || v > tol && ss.m.fixed.has(ss.basis[r])
}

// blandLeaving is the dual simplex's leaving position under Bland's rule:
// of the violators, the one with the smallest basic column, up when it is
// a fixed one above tol. It reads that column off ss.violators, which it
// builds from xB where *kept is not the factorization in place — on Bland's
// first choice and after a refactorization recomputed xB — and which
// keepViolators keeps from pivot to pivot otherwise.
func (ss *sparseSolve) blandLeaving(kept *int, tol float64) (leave int, up bool) {
	if *kept != ss.factored {
		*kept = ss.factored
		ss.violators.reset(ss.ncols)
		for r := range ss.xB {
			if ss.violates(r, tol) {
				ss.violators.put(ss.basis[r], true)
			}
		}
		ss.walked.blandReads += ss.rows
	}
	c, reads := ss.violators.min()
	ss.walked.bland++
	ss.walked.blandReads += reads
	if leave = -1; c >= 0 {
		leave = ss.inBasis[c]
		up = ss.xB[leave] > 0
	}
	if ss.onBland != nil {
		ss.onBland(leave, up)
	}
	return leave, up
}

// keepViolators brings ss.violators up to the pivot just made at position
// leave, which column out left: only the values along the entering
// column's image, and at leave, moved.
func (ss *sparseSolve) keepViolators(leave, out int, tol float64) {
	ss.violators.put(out, false)
	for _, i := range ss.w.Ind {
		ss.violators.put(ss.basis[i], ss.violates(i, tol))
	}
	ss.violators.put(ss.basis[leave], ss.violates(leave, tol))
	ss.walked.blandReads += len(ss.w.Ind) + 2
}

// primalIterate runs the revised primal simplex with partial pricing
// over the reduced costs in place, switching to Bland's rule after
// stalling. Optimal is declared only on freshly computed reduced costs:
// when the updated ones show no violator they are recomputed, and either
// that pass saw none above the tolerance or pricing goes on.
func (ss *sparseSolve) primalIterate() Status {
	tol, fixed := ss.opts.Tol, ss.m.fixed
	pinned := len(fixed) > 0
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
			// A fixed basic (at zero) blocks where enter would raise it.
			wi := w.Val[i]
			if wi <= tol && (!pinned || wi >= -tol || !fixed.has(ss.basis[i])) {
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
				} else if math.Abs(wi) > math.Abs(w.Val[leave]) {
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
	fixed := ss.m.fixed
	if bland {
		for j, d := range ss.d {
			if d > tol && !fixed.has(j) {
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
				if d > bestD && !fixed.has(j+i) {
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
// same tiny-negative clamp as the dense tableau, into x resized.
func (ss *sparseSolve) extract(x []float64) []float64 {
	x = linalg.Resized(x, ss.n)
	clear(x)
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
func (ss *sparseSolve) duals(out []float64) []float64 {
	d := ss.m.dir()
	out = linalg.Resized(out, ss.rows)
	for i := range out {
		out[i] = d * ss.y.Val[i]
	}
	return out
}

func (ss *sparseSolve) model() *Model { return ss.m }

func (ss *sparseSolve) bound() float64 { return ss.cut }

// save keeps the state after refactorizing an eta file past a quarter of
// its bound, so the trials that start from it have room to pivot (at
// 20×100×3 a trial from a state 39 etas deep could run out).
func (ss *sparseSolve) save(st *state) (refactors int, ok bool) {
	if ss.etas.Len() > sparseRefactorEvery/4 {
		if refactors = 1; !ss.refactorize() {
			return refactors, false
		}
	}
	st.basis, st.inBasis = append(st.basis[:0], ss.basis...), append(st.inBasis[:0], ss.inBasis...)
	st.vals, st.d = append(st.vals[:0], ss.xB...), append(st.d[:0], ss.d...)
	st.etas, st.cursor, st.factored = ss.etas.Mark(), ss.cursor, ss.factored
	return refactors, true
}

// relax clears every positive reduced cost of an enterable non-basic
// column.
func (ss *sparseSolve) relax() (moved bool) {
	fixed := ss.m.fixed
	for j, d := range ss.d {
		if d > 0 && ss.inBasis[j] < 0 && !fixed.has(j) {
			ss.d[j], moved = 0, true
		}
	}
	return moved
}

func (ss *sparseSolve) restore(st *state) (int, bool) {
	copy(ss.basis, st.basis)
	copy(ss.inBasis, st.inBasis)
	ss.cursor, ss.optimal = st.cursor, false
	if st.factored != ss.factored { // a later save refactorized: rebuild st's
		return 1, ss.refactorize()
	}
	copy(ss.xB, st.vals)
	copy(ss.d, st.d)
	ss.etas.Truncate(st.etas)
	return 0, true
}

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
