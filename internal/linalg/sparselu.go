package linalg

import "math"

// SparseLU is a sparse LU factorization of an n×n basis matrix assembled
// column by column (Gilbert–Peierls left-looking elimination with partial
// pivoting). The revised simplex solver feeds it basis columns in basis
// order; each AddColumn performs a sparse triangular solve against the L
// columns accepted so far (pattern by DFS reachability, numerics by
// scatter/gather), picks the largest-magnitude unpivoted row as the pivot,
// and either accepts the column or reports it linearly dependent. Once all
// n columns are accepted, Solve (FTRAN) and SolveT (BTRAN) answer
// B·x = b and Bᵀ·y = c in time proportional to the factor fill.
//
// Storage: L is unit lower triangular with the unit diagonal implicit and
// entries indexed by original row; U columns are indexed by pivot position
// (strictly above the diagonal), with the pivots kept separately in udiag.
// p[k] is the original row pivotal at position k and pinv is its inverse
// (-1 while unpivoted). Every L and U column is a slice header cut from
// one growing slab (ind, val), so Reset recycles the whole factorization
// and a refactorization in place allocates nothing once the slab has
// reached its size.
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

	// scratch (x must be all-zero between AddColumn calls)
	x       []float64
	fwd     []float64
	visited []bool
	topo    []int
	stack   []int
	scur    []int
}

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

// Pivoted reports whether original row r already hosts a pivot.
func (f *SparseLU) Pivoted(r int) bool { return f.pinv[r] >= 0 }

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
	f.reach(ind)
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
	return true
}

// reach computes the DFS post-order of every row reachable from ind
// through the L columns of pivotal rows, into f.topo. Iterative DFS so
// deep factor graphs cannot overflow the goroutine stack.
func (f *SparseLU) reach(ind []int) {
	f.topo = f.topo[:0]
	for _, root := range ind {
		if f.visited[root] {
			continue
		}
		f.visited[root] = true
		f.stack = append(f.stack[:0], root)
		f.scur = append(f.scur[:0], 0)
		for len(f.stack) > 0 {
			top := len(f.stack) - 1
			r := f.stack[top]
			k := f.pinv[r]
			advanced := false
			if k >= 0 {
				li := f.lind[k]
				for f.scur[top] < len(li) {
					child := li[f.scur[top]]
					f.scur[top]++
					if !f.visited[child] {
						f.visited[child] = true
						f.stack = append(f.stack, child)
						f.scur = append(f.scur, 0)
						advanced = true
						break
					}
				}
			}
			if !advanced {
				f.topo = append(f.topo, r)
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

// SolveT answers Bᵀ·y = c (BTRAN through the factors): c is indexed by
// basis position, out by original row. out must have length n and may
// alias c. It panics when the factorization is incomplete.
func (f *SparseLU) SolveT(c, out []float64) {
	if !f.Complete() {
		panic("linalg: SparseLU.SolveT on incomplete factorization")
	}
	w := f.fwd
	// Uᵀ forward solve: w[j] depends only on w[i] with i < j.
	for j := 0; j < f.n; j++ {
		s := c[j]
		ui, uv := f.uind[j], f.uval[j]
		for t, i := range ui {
			s -= uv[t] * w[i]
		}
		w[j] = s / f.udiag[j]
	}
	// Lᵀ backward solve: position k picks up the later positions its L
	// column scattered into.
	for k := f.n - 1; k >= 0; k-- {
		s := w[k]
		li, lv := f.lind[k], f.lval[k]
		for j, r := range li {
			s -= lv[j] * w[f.pinv[r]]
		}
		w[k] = s
	}
	for k := 0; k < f.n; k++ {
		out[f.p[k]] = w[k]
	}
}

// EtaFile accumulates product-form basis updates on top of a SparseLU:
// after replacing basis position r with a column whose FTRAN image is w,
// the new basis is B·E with E the identity carrying w in column r. FTRAN
// applies the inverses in append order after the LU solve; BTRAN applies
// the transposed inverses in reverse order before it. The simplex layer
// refactorizes once the file grows past its refresh bound.
type EtaFile struct {
	n    int
	etas []eta
	ind  []int     // slab behind the etas' entries
	val  []float64 // (see SparseLU's)
}

type eta struct {
	r    int
	ind  []int
	val  []float64
	diag float64
}

// NewEtaFile returns an empty file for n-dimensional bases. The zero
// value is an empty file too.
func NewEtaFile(n int) *EtaFile { return &EtaFile{n: n} }

// Len returns the number of recorded updates.
func (f *EtaFile) Len() int { return len(f.etas) }

// Reset drops every recorded update (after a refactorization), keeping
// the storage.
func (f *EtaFile) Reset() { f.etas, f.ind, f.val = f.etas[:0], f.ind[:0], f.val[:0] }

// Append records the replacement of basis position r by the column whose
// FTRAN image (position-indexed, dense) is w. It refuses — returning
// false — when the diagonal |w[r]| is at or below tol, which would make
// the update numerically singular.
func (f *EtaFile) Append(r int, w []float64, tol float64) bool {
	d := w[r]
	if math.Abs(d) <= tol {
		return false
	}
	f.ind, f.val = room(f.ind, len(w)), room(f.val, len(w))
	at := len(f.ind)
	for i, v := range w {
		if i != r && v != 0 {
			f.ind, f.val = append(f.ind, i), append(f.val, v)
		}
	}
	end := len(f.ind)
	f.etas = append(f.etas, eta{r: r, ind: f.ind[at:end:end], val: f.val[at:end:end], diag: d})
	return true
}

// Apply maps x ← E_k⁻¹···E_1⁻¹·x in place (the FTRAN tail).
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

// ApplyT maps c ← E_1ᵀ⁻¹···E_kᵀ⁻¹·c in place, newest update first (the
// BTRAN head, run before SparseLU.SolveT).
func (f *EtaFile) ApplyT(c []float64) {
	for i := len(f.etas) - 1; i >= 0; i-- {
		e := &f.etas[i]
		s := 0.0
		for j, idx := range e.ind {
			s += e.val[j] * c[idx]
		}
		c[e.r] = (c[e.r] - s) / e.diag
	}
}
