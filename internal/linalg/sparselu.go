package linalg

import (
	"math"
	"math/bits"
)

// SparseLU is a sparse LU factorization of an n×n basis matrix assembled
// column by column (Gilbert–Peierls left-looking elimination with partial
// pivoting). The revised simplex solver feeds it basis columns in basis
// order; each AddColumn performs a sparse triangular solve against the L
// columns accepted so far (pattern by DFS reachability, numerics by
// scatter/gather), picks the largest-magnitude unpivoted row as the pivot,
// and either accepts the column or reports it linearly dependent. Once all
// n columns are accepted, Solve answers B·x = b (FTRAN) for a dense
// right-hand side in time proportional to the factor fill, and SolveSparse
// (FTRAN) and SolveT (BTRAN, Bᵀ·y = c) answer for a right-hand side given
// by its few non-zeros in time proportional to the factor entries the
// answer's non-zeros touch.
//
// Storage: L is unit lower triangular with the unit diagonal implicit and
// entries indexed by original row; U columns are indexed by pivot position
// (strictly above the diagonal), with the pivots kept separately in udiag.
// p[k] is the original row pivotal at position k and pinv is its inverse
// (-1 while unpivoted). Every L and U column is a slice header cut from
// one growing slab (ind, val), so Reset recycles the whole factorization
// and a refactorization in place allocates nothing once the slab has
// reached its size. The column that completes the factorization also
// writes both factors out once more by row (lrow, urow, position-indexed on
// both sides): a transposed solve that follows its non-zeros needs, for a
// position, the entries of its row.
type SparseLU struct {
	n      int
	pivTol float64

	lind  [][]int
	lval  [][]float64
	uind  [][]int
	uval  [][]float64
	udiag []float64
	p     []int
	pinv  []int
	ind   []int     // slab behind lind and uind
	val   []float64 // slab behind lval and uval
	lrow  csr       // row p[k] of L: the positions k' < k it has entries at
	urow  csr       // row i of U: the positions j > i

	// scratch (x all-zero and visited all-false between calls)
	x       []float64
	fwd     []float64
	visited []bool
	topo    []int
	roots   []int
	stack   []int
	scur    []int
}

// csr is a compressed-row copy of one triangular factor: row i's entries
// are ind/val[ptr[i]:ptr[i+1]], in ascending column order.
type csr struct {
	ptr []int
	ind []int
	val []float64
}

func (c *csr) row(i int) ([]int, []float64) {
	return c.ind[c.ptr[i]:c.ptr[i+1]], c.val[c.ptr[i]:c.ptr[i+1]]
}

// SparseVec is a length-n work vector that knows where it is non-zero: Val
// is dense and zero off Ind, which lists each index that may hold a
// non-zero once, in no particular order. The sparse solves and the eta file
// read and extend the list instead of scanning Val; whoever is done with
// the vector calls Clear, which costs the list, not n.
type SparseVec struct {
	Val []float64
	Ind []int
	in  []bool // membership of Ind
}

// Reset sizes v for n entries, all zero, keeping its storage.
func (v *SparseVec) Reset(n int) {
	v.Val, v.in, v.Ind = Resized(v.Val, n), Resized(v.in, n), Resized(v.Ind, n)[:0]
	clear(v.Val)
	clear(v.in)
}

// Clear zeroes the listed entries and empties the list.
func (v *SparseVec) Clear() {
	for _, i := range v.Ind {
		v.Val[i], v.in[i] = 0, false
	}
	v.Ind = v.Ind[:0]
}

// Set assigns entry i, listing it if it was not.
func (v *SparseVec) Set(i int, x float64) {
	if !v.in[i] {
		v.in[i] = true
		v.Ind = append(v.Ind, i)
	}
	v.Val[i] = x
}

// Add adds x to entry i, listing it if it was not.
func (v *SparseVec) Add(i int, x float64) { v.Set(i, v.Val[i]+x) }

// NewSparseLU returns an empty factorization for an n×n basis; see Reset.
func NewSparseLU(n int, pivTol float64) *SparseLU {
	f := &SparseLU{}
	f.Reset(n, pivTol)
	return f
}

// Reset empties the factorization for an n×n basis, keeping every buffer
// it has grown. pivTol is the smallest pivot magnitude accepted; anything
// at or below it makes AddColumn report the column dependent. pivTol <= 0
// selects 1e-11.
func (f *SparseLU) Reset(n int, pivTol float64) {
	if pivTol <= 0 {
		pivTol = 1e-11
	}
	f.n, f.pivTol = n, pivTol
	f.lind, f.lval, f.uind, f.uval = f.lind[:0], f.lval[:0], f.uind[:0], f.uval[:0]
	f.udiag, f.p, f.ind, f.val = f.udiag[:0], f.p[:0], f.ind[:0], f.val[:0]
	f.pinv, f.x, f.fwd, f.visited = Resized(f.pinv, n), Resized(f.x, n), Resized(f.fwd, n), Resized(f.visited, n)
	clear(f.x)
	clear(f.visited)
	for i := range f.pinv {
		f.pinv[i] = -1
	}
}

// room returns slab with space for n more entries. A slab too full is
// left to the headers already cut from it and a fresh one of at least
// twice the size takes over, so one Reset later a single slab holds all.
func room[T any](slab []T, n int) []T {
	if cap(slab)-len(slab) < n {
		return make([]T, 0, max(n, 2*cap(slab), 64))
	}
	return slab
}

// N returns the basis dimension.
func (f *SparseLU) N() int { return f.n }

// Rank returns the number of columns accepted so far.
func (f *SparseLU) Rank() int { return len(f.p) }

// Complete reports whether all n columns have been accepted.
func (f *SparseLU) Complete() bool { return len(f.p) == f.n }

// AddColumn eliminates one basis column (row indices ind, values val;
// duplicate row entries accumulate) against the factors built so far and
// accepts it as the next pivot column. It returns false — leaving the
// factorization unchanged — when the column is linearly dependent on the
// columns already accepted (no unpivoted row carries more than pivTol
// after elimination), or when the factorization is already complete.
func (f *SparseLU) AddColumn(ind []int, val []float64) bool {
	if len(f.p) >= f.n {
		return false
	}
	// Scatter the column and find the reachable pattern.
	for i, r := range ind {
		f.x[r] += val[i]
	}
	f.reach(lCols, ind)
	// Eliminate in topological order (reverse DFS post-order): pivotal row
	// r with multiplier x[r] updates the rows of its L column.
	for t := len(f.topo) - 1; t >= 0; t-- {
		r := f.topo[t]
		k := f.pinv[r]
		if k < 0 {
			continue
		}
		xr := f.x[r]
		if xr != 0 {
			li, lv := f.lind[k], f.lval[k]
			for j, rr := range li {
				f.x[rr] -= xr * lv[j]
			}
		}
	}
	// Partial pivoting: the largest-magnitude unpivoted row wins.
	piv, pivAbs := -1, f.pivTol
	for _, r := range f.topo {
		if f.pinv[r] >= 0 {
			continue
		}
		if a := math.Abs(f.x[r]); a > pivAbs {
			piv, pivAbs = r, a
		}
	}
	if piv < 0 {
		f.clear()
		return false
	}
	// Harvest U (pivotal rows), then L (unpivoted rows, scaled by the
	// pivot), each in topo order, as two runs of the slab.
	k := len(f.p)
	d := f.x[piv]
	f.ind, f.val = room(f.ind, len(f.topo)), room(f.val, len(f.topo))
	at := len(f.ind)
	for _, r := range f.topo {
		if v := f.x[r]; v != 0 && f.pinv[r] >= 0 {
			f.ind, f.val = append(f.ind, f.pinv[r]), append(f.val, v)
		}
	}
	mid := len(f.ind)
	for _, r := range f.topo {
		if v := f.x[r]; v != 0 && f.pinv[r] < 0 && r != piv {
			f.ind, f.val = append(f.ind, r), append(f.val, v/d)
		}
	}
	end := len(f.ind)
	f.uind, f.uval = append(f.uind, f.ind[at:mid:mid]), append(f.uval, f.val[at:mid:mid])
	f.lind, f.lval = append(f.lind, f.ind[mid:end:end]), append(f.lval, f.val[mid:end:end])
	f.udiag = append(f.udiag, d)
	f.p = append(f.p, piv)
	f.pinv[piv] = k
	f.clear()
	if f.Complete() {
		f.transpose()
	}
	return true
}

// transpose writes the finished factors out by row, O(fill): count each
// row's entries, turn the counts into offsets, then deal the columns out in
// ascending order, which leaves every row sorted by column.
func (f *SparseLU) transpose() {
	n := f.n
	for _, c := range []*csr{&f.lrow, &f.urow} {
		c.ptr = Resized(c.ptr, n+1)
		clear(c.ptr)
	}
	for k := 0; k < n; k++ {
		for _, r := range f.lind[k] {
			f.lrow.ptr[f.pinv[r]+1]++
		}
		for _, i := range f.uind[k] {
			f.urow.ptr[i+1]++
		}
	}
	for _, c := range []*csr{&f.lrow, &f.urow} {
		for i := 0; i < n; i++ {
			c.ptr[i+1] += c.ptr[i]
		}
		c.ind, c.val = Resized(c.ind, c.ptr[n]), Resized(c.val, c.ptr[n])
	}
	// ptr[i] walks forward through row i while it fills and is shifted back
	// one row afterwards.
	for k := 0; k < n; k++ {
		for t, r := range f.lind[k] {
			at := f.lrow.ptr[f.pinv[r]]
			f.lrow.ind[at], f.lrow.val[at] = k, f.lval[k][t]
			f.lrow.ptr[f.pinv[r]] = at + 1
		}
		for t, i := range f.uind[k] {
			at := f.urow.ptr[i]
			f.urow.ind[at], f.urow.val[at] = k, f.uval[k][t]
			f.urow.ptr[i] = at + 1
		}
	}
	for _, c := range []*csr{&f.lrow, &f.urow} {
		copy(c.ptr[1:], c.ptr[:n])
		c.ptr[0] = 0
	}
}

// pattern names one of the four triangular graphs a solve follows its
// non-zeros through: node v's edges lead to the entries a non-zero at v
// fills in.
type pattern uint8

const (
	lCols pattern = iota // row r -> the rows of the L column r pivots (none while r is unpivoted)
	uCols                // position j -> the positions above it in U's column j
	uRows                // position i -> the positions right of it in U's row i
	lRows                // position k -> the positions left of it in L's row p[k]
)

func (f *SparseLU) edges(g pattern, v int) []int {
	switch g {
	case lCols:
		if k := f.pinv[v]; k >= 0 {
			return f.lind[k]
		}
		return nil
	case uCols:
		return f.uind[v]
	case uRows:
		ind, _ := f.urow.row(v)
		return ind
	default:
		ind, _ := f.lrow.row(v)
		return ind
	}
}

// reach computes the DFS post-order of every node reachable from roots
// through g, into f.topo: read backwards, an order in which a triangular
// solve meets every non-zero after all that feed it. Iterative DFS so deep
// factor graphs cannot overflow the goroutine stack. The nodes stay marked
// in f.visited for the caller to unmark as it walks f.topo.
func (f *SparseLU) reach(g pattern, roots []int) {
	f.topo = f.topo[:0]
	for _, root := range roots {
		if f.visited[root] {
			continue
		}
		f.visited[root] = true
		f.stack = append(f.stack[:0], root)
		f.scur = append(f.scur[:0], 0)
		for len(f.stack) > 0 {
			top := len(f.stack) - 1
			v := f.stack[top]
			advanced := false
			for next := f.edges(g, v); f.scur[top] < len(next); {
				child := next[f.scur[top]]
				f.scur[top]++
				if !f.visited[child] {
					f.visited[child] = true
					f.stack = append(f.stack, child)
					f.scur = append(f.scur, 0)
					advanced = true
					break
				}
			}
			if !advanced {
				f.topo = append(f.topo, v)
				f.stack = f.stack[:top]
				f.scur = f.scur[:top]
			}
		}
	}
}

// clear zeroes the scratch touched by the last AddColumn.
func (f *SparseLU) clear() {
	for _, r := range f.topo {
		f.x[r] = 0
		f.visited[r] = false
	}
	f.topo = f.topo[:0]
}

// Solve answers B·x = b (FTRAN through the factors): b is indexed by
// original row, out by basis position. out must have length n and may
// alias b. It panics when the factorization is incomplete.
func (f *SparseLU) Solve(b, out []float64) {
	if !f.Complete() {
		panic("linalg: SparseLU.Solve on incomplete factorization")
	}
	x := f.fwd
	copy(x, b)
	// Unit lower triangular forward solve in pivot order.
	for k := 0; k < f.n; k++ {
		xr := x[f.p[k]]
		if xr != 0 {
			li, lv := f.lind[k], f.lval[k]
			for j, r := range li {
				x[r] -= xr * lv[j]
			}
		}
	}
	for k := 0; k < f.n; k++ {
		out[k] = x[f.p[k]]
	}
	// Upper triangular backward solve, column-oriented.
	for j := f.n - 1; j >= 0; j-- {
		out[j] /= f.udiag[j]
		v := out[j]
		if v != 0 {
			ui, uv := f.uind[j], f.uval[j]
			for t, i := range ui {
				out[i] -= v * uv[t]
			}
		}
	}
}

// SolveSparse answers B·x = b like Solve for a right-hand side given by
// its non-zeros (original rows ind, values val; duplicates accumulate),
// into out, which must come in clear: position-indexed like Solve's answer,
// every position that may be non-zero listed. Each triangular solve visits
// only what its right-hand side reaches through the factor's pattern, so
// the cost is the factor entries under the answer's non-zeros, not n.
func (f *SparseLU) SolveSparse(ind []int, val []float64, out *SparseVec) {
	if !f.Complete() {
		panic("linalg: SparseLU.SolveSparse on incomplete factorization")
	}
	x := f.x
	for i, r := range ind {
		x[r] += val[i]
	}
	// L: row r, final once everything that reaches it is done, updates the
	// rows below its pivot and lands at its pivot's position.
	f.reach(lCols, ind)
	f.roots = f.roots[:0]
	for t := len(f.topo) - 1; t >= 0; t-- {
		r := f.topo[t]
		f.visited[r] = false
		xr := x[r]
		if xr == 0 {
			continue
		}
		x[r] = 0
		k := f.pinv[r]
		li, lv := f.lind[k], f.lval[k]
		for j, rr := range li {
			x[rr] -= xr * lv[j]
		}
		out.Val[k] = xr
		f.roots = append(f.roots, k)
	}
	// U, column-oriented as in Solve.
	f.reach(uCols, f.roots)
	for t := len(f.topo) - 1; t >= 0; t-- {
		j := f.topo[t]
		f.visited[j] = false
		v := out.Val[j] / f.udiag[j]
		out.Set(j, v)
		if v != 0 {
			ui, uv := f.uind[j], f.uval[j]
			for t, i := range ui {
				out.Val[i] -= v * uv[t]
			}
		}
	}
}

// SolveT answers Bᵀ·y = c (BTRAN through the factors) for a right-hand
// side that knows its non-zeros — the simplex has no other kind: a unit
// vector, or the costs of the few basic columns that carry one. c,
// position-indexed, is consumed and left clear; out, which must come in
// clear, is indexed by original row. Both triangular solves run
// column-oriented over the row-wise copies of the factors, each visiting
// what its right-hand side reaches. It panics when the factorization is
// incomplete.
func (f *SparseLU) SolveT(c, out *SparseVec) {
	if !f.Complete() {
		panic("linalg: SparseLU.SolveT on incomplete factorization")
	}
	w := c.Val
	// Uᵀ: position i, once final, updates the positions to its right.
	f.reach(uRows, c.Ind)
	f.roots = f.roots[:0]
	for t := len(f.topo) - 1; t >= 0; t-- {
		i := f.topo[t]
		f.visited[i] = false
		if w[i] == 0 {
			continue
		}
		wi := w[i] / f.udiag[i]
		w[i] = wi
		ui, uv := f.urow.row(i)
		for t, j := range ui {
			w[j] -= uv[t] * wi
		}
		f.roots = append(f.roots, i)
	}
	// Lᵀ: position k updates the positions to its left and lands at the
	// row it pivots. Every entry of w the first pass left non-zero is a
	// root here, so w is all-zero again when this pass is through.
	f.reach(lRows, f.roots)
	for t := len(f.topo) - 1; t >= 0; t-- {
		k := f.topo[t]
		f.visited[k] = false
		wk := w[k]
		if wk == 0 {
			continue
		}
		w[k] = 0
		li, lv := f.lrow.row(k)
		for t, j := range li {
			w[j] -= lv[t] * wk
		}
		out.Set(f.p[k], wk)
	}
	c.Clear()
}

// EtaFile accumulates product-form basis updates on top of a SparseLU:
// after replacing basis position r with a column whose FTRAN image is w,
// the new basis is B·E with E the identity carrying w in column r. FTRAN
// applies the inverses in append order after the LU solve; BTRAN applies
// the transposed inverses in reverse order before it. The simplex layer
// refactorizes once the file grows past its refresh bound.
//
// A file can keep a position index beside it (Index, etaIndex); the
// sparse walks then follow it to the updates that can act on the vector
// in hand instead of visiting every one. They apply the same updates in
// the same order with the same arithmetic (eta.ftran, eta.btran); what
// they step over are updates the full walk finds to be no-ops.
type EtaFile struct {
	etas []eta
	ind  []int     // slab behind the etas' entries
	val  []float64 // (see SparseLU's)
	ix   etaIndex
}

type eta struct {
	r    int
	ind  []int
	val  []float64
	diag float64
	// While indexed: the update before this one at position r (plus one, 0
	// for none) and this update's first node (see etaIndex).
	older, node int
}

// etaIndex lists an EtaFile's updates by position, newest first, each list
// linked through the updates themselves, so that appending, truncating and
// dropping cost the updates concerned and never the dimension. at[p] is
// the newest update pivoting at p (FTRAN's question: which updates does a
// non-zero at p set off), touch[p] the newest node of an update that
// reads or writes p (BTRAN's); both are plus one, 0 for none, and all zero
// while the index is off. An update's nodes are its pivot position's, then
// its entries', in order. mark is a walk's worklist, a bitmap over the
// updates, all clear between walks. On, the index covers every update in
// the file.
type etaIndex struct {
	on        bool
	at, touch []int
	nodes     []etaNode
	mark      []uint64
}

// etaNode is one position an update touches: the update, and the node of
// the update before it that touches the same position (plus one).
type etaNode struct{ eta, older int }

// Len returns the number of recorded updates.
func (f *EtaFile) Len() int { return len(f.etas) }

// Reset drops every recorded update (after a refactorization), keeping
// the storage and the index on or off.
func (f *EtaFile) Reset() {
	f.Truncate(EtaMark{0, f.ind[:0], f.val[:0]})
}

// Index turns the position index on, over every update recorded and each
// one appended after, or off. It pays where updates are many and each
// touches few positions, so that most of a full walk's visits are no-ops;
// n is the vectors' dimension, and an index on for a smaller one is rebuilt.
func (f *EtaFile) Index(on bool, n int) {
	if f.ix.on && (!on || len(f.ix.at) < n) {
		f.ix.cut(f.etas, 0)
		f.ix.on = false
	}
	if !on || f.ix.on {
		return
	}
	if len(f.ix.at) < n {
		f.ix.at, f.ix.touch = make([]int, n), make([]int, n)
	}
	f.ix.on, f.ix.nodes = true, f.ix.nodes[:0]
	for i := range f.etas {
		f.ix.add(f.etas, i)
	}
}

// EtaMark is a length of an EtaFile, to truncate it back to.
type EtaMark struct {
	n   int
	ind []int
	val []float64
}

// Mark records the file's current length.
func (f *EtaFile) Mark() EtaMark { return EtaMark{len(f.etas), f.ind, f.val} }

// Truncate drops every update recorded since m was marked, with no Reset
// between: the basis goes back to the one the file described then.
func (f *EtaFile) Truncate(m EtaMark) {
	if f.ix.on {
		f.ix.cut(f.etas, m.n)
	}
	f.etas, f.ind, f.val = f.etas[:m.n], m.ind, m.val
}

// Append records the replacement of basis position r by the column whose
// FTRAN image (position-indexed) is w, keeping w's listed non-zeros. It
// refuses — returning false — when the diagonal |w[r]| is at or below tol,
// which would make the update numerically singular.
func (f *EtaFile) Append(r int, w *SparseVec, tol float64) bool {
	d := w.Val[r]
	if math.Abs(d) <= tol {
		return false
	}
	f.ind, f.val = room(f.ind, len(w.Ind)), room(f.val, len(w.Ind))
	at := len(f.ind)
	for _, i := range w.Ind {
		if v := w.Val[i]; i != r && v != 0 {
			f.ind, f.val = append(f.ind, i), append(f.val, v)
		}
	}
	end := len(f.ind)
	f.etas = append(f.etas, eta{r: r, ind: f.ind[at:end:end], val: f.val[at:end:end], diag: d})
	if f.ix.on {
		f.ix.add(f.etas, len(f.etas)-1)
	}
	return true
}

// add indexes update i, the newest.
func (x *etaIndex) add(etas []eta, i int) {
	e := &etas[i]
	e.older, x.at[e.r] = x.at[e.r], i+1
	e.node = len(x.nodes)
	x.link(e.r, i)
	for _, p := range e.ind {
		x.link(p, i)
	}
	if words := (len(etas) + 63) / 64; len(x.mark) < words {
		// Storage past the length is clear too: walks clear what they set.
		x.mark = Resized(x.mark, max(words, 2*len(x.mark)))
	}
}

func (x *etaIndex) link(p, i int) {
	x.nodes = append(x.nodes, etaNode{eta: i, older: x.touch[p]})
	x.touch[p] = len(x.nodes)
}

// cut takes every update from the n-th on out of the index, newest first.
func (x *etaIndex) cut(etas []eta, n int) {
	for i := len(etas) - 1; i >= n; i-- {
		e := &etas[i]
		x.at[e.r] = e.older
		x.touch[e.r] = x.nodes[e.node].older
		for j, p := range e.ind {
			x.touch[p] = x.nodes[e.node+1+j].older
		}
		x.nodes = x.nodes[:e.node]
	}
}

// markAt marks the updates pivoting at position p that come after update
// i (-1: all of them).
func (x *etaIndex) markAt(etas []eta, p, i int) {
	for k := x.at[p]; k > i+1; k = etas[k-1].older {
		x.mark[(k-1)>>6] |= 1 << ((k - 1) & 63)
	}
}

// markTouch marks the update of node k (plus one) and of every node before
// it at the same position.
func (x *etaIndex) markTouch(k int) {
	for ; k > 0; k = x.nodes[k-1].older {
		i := x.nodes[k-1].eta
		x.mark[i>>6] |= 1 << (i & 63)
	}
}

// next clears and returns the first marked update after i, -1 for none;
// none at or before i may be marked.
func (x *etaIndex) next(i int) int {
	for w := (i + 1) >> 6; w < len(x.mark); w++ {
		if b := x.mark[w]; b != 0 {
			t := bits.TrailingZeros64(b)
			x.mark[w] = b &^ (1 << t)
			return w<<6 + t
		}
	}
	return -1
}

// prev clears and returns the last marked update before i, -1 for none;
// none at or after i may be marked.
func (x *etaIndex) prev(i int) int {
	for w := (i - 1) >> 6; w >= 0; w-- {
		if b := x.mark[w]; b != 0 {
			t := 63 - bits.LeadingZeros64(b)
			x.mark[w] = b &^ (1 << t)
			return w<<6 + t
		}
	}
	return -1
}

// Apply maps x ← E_k⁻¹···E_1⁻¹·x in place (the FTRAN tail) for a dense x.
func (f *EtaFile) Apply(x []float64) {
	for i := range f.etas {
		e := &f.etas[i]
		xr := x[e.r] / e.diag
		for j, idx := range e.ind {
			x[idx] -= e.val[j] * xr
		}
		x[e.r] = xr
	}
}

// ApplySparse is Apply on a vector that knows its non-zeros: an update
// whose position holds a zero is stepped over, and what the others fill in
// joins the list. It reports how many updates it visited and how many of
// those acted. An indexed file is walked from the listed positions: each
// update pivoting at one of them is visited, and so is each one pivoting
// at a position an update fills in after it.
func (f *EtaFile) ApplySparse(x *SparseVec) (visited, applied int) {
	if !f.ix.on {
		for i := range f.etas {
			if f.etas[i].ftran(x) {
				applied++
			}
		}
		return len(f.etas), applied
	}
	ix := &f.ix
	for _, p := range x.Ind {
		ix.markAt(f.etas, p, -1)
	}
	for i := ix.next(-1); i >= 0; i = ix.next(i) {
		visited++
		listed := len(x.Ind)
		if f.etas[i].ftran(x) {
			applied++
			for _, p := range x.Ind[listed:] {
				ix.markAt(f.etas, p, i)
			}
		}
	}
	return visited, applied
}

// ftran applies e's inverse to x unless x holds a zero at e's position,
// and reports whether it did.
func (e *eta) ftran(x *SparseVec) bool {
	xr := x.Val[e.r]
	if xr == 0 {
		return false
	}
	xr /= e.diag
	for j, idx := range e.ind {
		x.Add(idx, -e.val[j]*xr)
	}
	x.Val[e.r] = xr
	return true
}

// ApplyT maps c ← E_1ᵀ⁻¹···E_kᵀ⁻¹·c in place, newest update first (the
// BTRAN head, run before SparseLU.SolveT): each update writes one entry,
// listed when it turns non-zero. It reports how many updates it visited
// and how many of those acted. An indexed file is walked from the listed
// positions: each update touching one of them is visited, and so is each
// older one touching a position an update writes.
func (f *EtaFile) ApplyT(c *SparseVec) (visited, applied int) {
	if !f.ix.on {
		for i := len(f.etas) - 1; i >= 0; i-- {
			if f.etas[i].btran(c) {
				applied++
			}
		}
		return len(f.etas), applied
	}
	ix := &f.ix
	for _, p := range c.Ind {
		ix.markTouch(ix.touch[p])
	}
	for i := ix.prev(len(f.etas)); i >= 0; i = ix.prev(i) {
		visited++
		e := &f.etas[i]
		listed := len(c.Ind)
		if e.btran(c) {
			applied++
			if len(c.Ind) > listed {
				ix.markTouch(ix.nodes[e.node].older)
			}
		}
	}
	return visited, applied
}

// btran applies e's transposed inverse to c unless it would be a no-op —
// c zero at every position e touches — and reports whether it did.
func (e *eta) btran(c *SparseVec) bool {
	s := 0.0
	for j, idx := range e.ind {
		s += e.val[j] * c.Val[idx]
	}
	if s == 0 && c.Val[e.r] == 0 {
		return false
	}
	c.Set(e.r, (c.Val[e.r]-s)/e.diag)
	return true
}
