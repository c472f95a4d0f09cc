package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sparseCol is a test-side basis column.
type sparseCol struct {
	ind []int
	val []float64
}

// mulCols computes B·x for the basis given as columns (position-indexed x,
// original-row-indexed result).
func mulCols(n int, cols []sparseCol, x []float64) []float64 {
	out := make([]float64, n)
	for k, c := range cols {
		for i, r := range c.ind {
			out[r] += c.val[i] * x[k]
		}
	}
	return out
}

// colDot computes one entry of Bᵀ·y.
func colDot(c sparseCol, y []float64) float64 {
	var s float64
	for i, r := range c.ind {
		s += c.val[i] * y[r]
	}
	return s
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// checkFactors verifies an FTRAN and a BTRAN against the column set by
// residual: B·solve(b) ≈ b and Bᵀ·solveT(c) ≈ c.
func checkFactors(t *testing.T, n int, cols []sparseCol, solve func(b, out []float64), solveT func(c, out []float64)) {
	t.Helper()
	scale := 1.0
	for _, c := range cols {
		if a := maxAbs(c.val); a > scale {
			scale = a
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7)%5) - 2
	}
	x := make([]float64, n)
	solve(b, x)
	got := mulCols(n, cols, x)
	tol := 1e-6 * scale * (1 + maxAbs(x))
	for i := range b {
		if math.Abs(got[i]-b[i]) > tol {
			t.Fatalf("FTRAN residual row %d: got %g want %g (tol %g)", i, got[i], b[i], tol)
		}
	}
	c := make([]float64, n)
	for i := range c {
		c[i] = float64((i*3)%7) - 3
	}
	y := make([]float64, n)
	solveT(c, y)
	tolT := 1e-6 * scale * (1 + maxAbs(y))
	for k := range cols {
		if d := colDot(cols[k], y); math.Abs(d-c[k]) > tolT {
			t.Fatalf("BTRAN residual col %d: got %g want %g (tol %g)", k, d, c[k], tolT)
		}
	}
}

// btranOf adapts the list-taking BTRAN through f and etas (nil: none) to
// checkFactors' dense vectors.
func btranOf(f *SparseLU, etas *EtaFile) func(c, out []float64) {
	return func(c, out []float64) {
		var in, y SparseVec
		in.Reset(len(c))
		y.Reset(len(c))
		for i, v := range c {
			if v != 0 {
				in.Set(i, v)
			}
		}
		if etas != nil {
			etas.ApplyT(&in)
		}
		f.SolveT(&in, &y)
		copy(out, y.Val)
	}
}

func factorAll(n int, cols []sparseCol, pivTol float64) *SparseLU {
	f := NewSparseLU(n, pivTol)
	for _, c := range cols {
		if !f.AddColumn(c.ind, c.val) {
			return nil
		}
	}
	return f
}

func TestSparseLURandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(14)
		cols := make([]sparseCol, n)
		// Diagonal plus random fill keeps the matrix nonsingular.
		for k := 0; k < n; k++ {
			cols[k].ind = append(cols[k].ind, k)
			cols[k].val = append(cols[k].val, 1+rng.Float64()*4)
			for extra := rng.Intn(4); extra > 0; extra-- {
				cols[k].ind = append(cols[k].ind, rng.Intn(n))
				cols[k].val = append(cols[k].val, rng.NormFloat64())
			}
		}
		f := factorAll(n, cols, 0)
		if f == nil {
			t.Fatalf("trial %d: nonsingular matrix rejected", trial)
		}
		if !f.Complete() {
			t.Fatalf("trial %d: factorization incomplete", trial)
		}
		checkFactors(t, n, cols, f.Solve, btranOf(f, nil))
	}
}

func TestSparseLURejectsDependentColumns(t *testing.T) {
	// Second column is a scalar multiple of the first.
	f := NewSparseLU(3, 0)
	if !f.AddColumn([]int{0, 1}, []float64{1, 2}) {
		t.Fatal("first column rejected")
	}
	if f.AddColumn([]int{0, 1}, []float64{2, 4}) {
		t.Fatal("duplicate column accepted")
	}
	if f.Rank() != 1 {
		t.Fatalf("rank %d after rejection, want 1", f.Rank())
	}
	// An all-zero column is dependent by definition.
	if f.AddColumn([]int{2}, []float64{0}) {
		t.Fatal("zero column accepted")
	}
	// Completing with independent columns still works after rejections.
	if !f.AddColumn([]int{1}, []float64{1}) || !f.AddColumn([]int{2}, []float64{5}) {
		t.Fatal("independent completion rejected")
	}
	if !f.Complete() {
		t.Fatal("factorization incomplete")
	}
}

func TestSparseLUZeroRowSingular(t *testing.T) {
	// Row 1 is zero in every column: at most n-1 columns can be accepted.
	cols := []sparseCol{
		{ind: []int{0}, val: []float64{1}},
		{ind: []int{2}, val: []float64{1}},
		{ind: []int{0, 2}, val: []float64{3, -1}},
	}
	f := NewSparseLU(3, 0)
	accepted := 0
	for _, c := range cols {
		if f.AddColumn(c.ind, c.val) {
			accepted++
		}
	}
	if accepted != 2 || f.Complete() {
		t.Fatalf("accepted %d columns of a zero-row matrix, complete=%v", accepted, f.Complete())
	}
}

func TestSparseLUDuplicateRowEntriesAccumulate(t *testing.T) {
	// (0: 1+2, 1: 5) should behave exactly like (0: 3, 1: 5).
	a := factorAll(2, []sparseCol{
		{ind: []int{0, 1, 0}, val: []float64{1, 5, 2}},
		{ind: []int{1}, val: []float64{1}},
	}, 0)
	b := factorAll(2, []sparseCol{
		{ind: []int{0, 1}, val: []float64{3, 5}},
		{ind: []int{1}, val: []float64{1}},
	}, 0)
	if a == nil || b == nil {
		t.Fatal("factorization rejected")
	}
	rhs := []float64{7, -2}
	xa := make([]float64, 2)
	xb := make([]float64, 2)
	a.Solve(rhs, xa)
	b.Solve(rhs, xb)
	for i := range xa {
		if math.Abs(xa[i]-xb[i]) > 1e-12 {
			t.Fatalf("duplicate-entry solve differs: %v vs %v", xa, xb)
		}
	}
}

func TestEtaFileUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		cols := make([]sparseCol, n)
		for k := 0; k < n; k++ {
			cols[k].ind = append(cols[k].ind, k)
			cols[k].val = append(cols[k].val, 1+rng.Float64()*3)
			if k > 0 {
				cols[k].ind = append(cols[k].ind, rng.Intn(k))
				cols[k].val = append(cols[k].val, rng.NormFloat64())
			}
		}
		f := factorAll(n, cols, 0)
		if f == nil {
			t.Fatalf("trial %d: base factorization rejected", trial)
		}
		etas := new(EtaFile)
		ftran := func(b, out []float64) {
			f.Solve(b, out)
			etas.Apply(out)
		}
		btran := btranOf(f, etas)
		// A few random column replacements, each recorded as an eta.
		for upd := 0; upd < 4; upd++ {
			r := rng.Intn(n)
			repl := sparseCol{
				ind: []int{r, rng.Intn(n)},
				val: []float64{2 + rng.Float64(), rng.NormFloat64()},
			}
			w, _ := checkSparseSolves(t, f, etas, cols, repl, r)
			if !etas.Append(r, w, 1e-11) {
				continue // singular replacement refused: basis unchanged
			}
			cols[r] = repl
		}
		checkFactors(t, n, cols, ftran, btran)
	}
}

// checkSparseSolves runs the list-returning solves on factors and eta
// file of the given basis — FTRAN of column c, checked against the dense
// Solve, and BTRAN of the unit vector e_r, checked by residual Bᵀ·rho = e_r
// — and requires of each: a list without duplicates, exact zeros off it,
// every value within the residual checks' tolerance, and the factors'
// scratch all-clear afterwards. (An unlisted entry the dense solve leaves
// at 1e-17 is cancellation the sparse solve met as an exact zero and did
// not follow.) It returns the FTRAN image and the BTRAN row.
func checkSparseSolves(t *testing.T, f *SparseLU, etas *EtaFile, basis []sparseCol, c sparseCol, r int) (w, rho *SparseVec) {
	t.Helper()
	n := f.N()
	listing := func(what string, got *SparseVec) {
		t.Helper()
		listed := make([]bool, n)
		for _, i := range got.Ind {
			if listed[i] {
				t.Fatalf("%s: index %d listed twice in %v", what, i, got.Ind)
			}
			listed[i] = true
		}
		for i, v := range got.Val {
			if !listed[i] && v != 0 {
				t.Fatalf("%s: entry %d is %g but not listed in %v", what, i, v, got.Ind)
			}
		}
		requireScratchClear(t, f)
	}
	dense, want := make([]float64, n), make([]float64, n)
	for i, row := range c.ind {
		dense[row] += c.val[i]
	}
	f.Solve(dense, want)
	etas.Apply(want)
	w, rho = new(SparseVec), new(SparseVec)
	w.Reset(n)
	f.SolveSparse(c.ind, c.val, w)
	etas.ApplySparse(w)
	listing("FTRAN", w)
	tol := 1e-6 * (1 + maxAbs(want))
	for i, v := range want {
		if math.Abs(w.Val[i]-v) > tol {
			t.Fatalf("FTRAN: entry %d is %g, dense solve says %g (tol %g)", i, w.Val[i], v, tol)
		}
	}

	var unit SparseVec
	unit.Reset(n)
	rho.Reset(n)
	unit.Set(r, 1)
	etas.ApplyT(&unit)
	f.SolveT(&unit, rho)
	listing("BTRAN", rho)
	if len(unit.Ind) != 0 || maxAbs(unit.Val) != 0 {
		t.Fatalf("BTRAN left its right-hand side dirty: %v %v", unit.Ind, unit.Val)
	}
	scale := 1.0
	for _, col := range basis {
		scale = math.Max(scale, maxAbs(col.val))
	}
	tol = 1e-6 * scale * (1 + maxAbs(rho.Val))
	for k, col := range basis {
		want := 0.0
		if k == r {
			want = 1
		}
		if got := colDot(col, rho.Val); math.Abs(got-want) > tol {
			t.Fatalf("BTRAN of e_%d: residual at column %d is %g, want %g (tol %g)", r, k, got, want, tol)
		}
	}
	return w, rho
}

// requireScratchClear checks the invariant every entry point of f relies
// on: the scattered work vector all zero, nothing marked visited.
func requireScratchClear(t *testing.T, f *SparseLU) {
	t.Helper()
	for i := range f.x {
		if f.x[i] != 0 || f.visited[i] {
			t.Fatalf("scratch dirty at %d: x=%g visited=%v", i, f.x[i], f.visited[i])
		}
	}
}

func TestEtaFileRefusesSingularUpdate(t *testing.T) {
	etas := new(EtaFile)
	var w SparseVec
	w.Reset(2)
	w.Set(1, 3)
	if etas.Append(0, &w, 1e-11) {
		t.Fatal("singular eta accepted")
	}
	if etas.Len() != 0 {
		t.Fatalf("eta file grew on refusal: %d", etas.Len())
	}
}

// FuzzSparseFactors throws hostile basis column sets — duplicate columns,
// zero rows, near-singular bases — at the LU + eta update path, and its
// bytes at an aged eta file (checkAgedEtas). Any basis
// the factorization accepts must solve FTRAN/BTRAN to a small residual,
// both before and after a product-form column replacement; the
// list-returning solves must agree with the dense ones on every column
// offered and every unit row, list what they fill, give the same lists on
// fresh and reused factors, and leave the scratch clear — as a rejected
// column must.
func FuzzSparseFactors(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 10, 1, 1, 20, 2, 2, 30})             // diagonal
	f.Add(uint8(3), []byte{0, 0, 10, 0, 0, 10, 1, 1, 5, 2, 2, 5})     // duplicate column
	f.Add(uint8(4), []byte{0, 0, 9, 1, 1, 9, 3, 3, 9, 2, 0, 4})       // zero row 2
	f.Add(uint8(2), []byte{0, 0, 1, 0, 1, 255, 1, 0, 254, 1, 1, 255}) // near-singular
	f.Add(uint8(1), []byte{0, 0, 0})                                  // 1×1 zero
	f.Add(uint8(99), []byte("00007001 12010 2100000"))                // a BTRAN entry cancels to 1e-17 dense, to an exact 0 sparse
	f.Fuzz(func(t *testing.T, dim uint8, data []byte) {
		n := 1 + int(dim)%12
		checkAgedEtas(t, n, data)
		var cols []sparseCol
		cur := -1
		for i := 0; i+2 < len(data); i += 3 {
			c := int(data[i]) % n
			r := int(data[i+1]) % n
			v := (float64(data[i+2]) - 127) / 16
			if c != cur {
				if len(cols) >= 2*n {
					break
				}
				cols = append(cols, sparseCol{})
				cur = c
			}
			last := &cols[len(cols)-1]
			last.ind = append(last.ind, r)
			last.val = append(last.val, v)
		}
		// Every input is factored twice: in a fresh SparseLU and in one Reset
		// after factoring a matrix of another size, whose slabs, headers and
		// scratch the second run recycles. Reuse must not show.
		lu, re := NewSparseLU(n, 1e-10), NewSparseLU(n+5, 0)
		for k := 0; k < n+5; k++ {
			re.AddColumn([]int{k, (k + 3) % (n + 5)}, []float64{4, 1})
		}
		re.Reset(n, 1e-10)
		var accepted []sparseCol
		for _, c := range cols {
			if len(c.ind) == 0 {
				continue
			}
			ok := lu.AddColumn(c.ind, c.val)
			if re.AddColumn(c.ind, c.val) != ok {
				t.Fatalf("column %v: fresh factors say %v, reused ones differ", c, ok)
			}
			requireScratchClear(t, lu)
			if ok {
				accepted = append(accepted, c)
			}
		}
		if lu.Rank() != len(accepted) {
			t.Fatalf("rank %d but %d columns accepted", lu.Rank(), len(accepted))
		}
		if !slices.Equal(lu.p, re.p) {
			t.Fatalf("pivot order %v fresh, %v reused", lu.p, re.p)
		}
		if !lu.Complete() {
			return
		}
		rhs, a, b := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i+1) - 0.37*float64(int(dim)%7)
		}
		for _, solve := range []func(*SparseLU, []float64, []float64){
			(*SparseLU).Solve,
			func(f *SparseLU, c, out []float64) { btranOf(f, nil)(c, out) },
		} {
			solve(lu, rhs, a)
			solve(re, rhs, b)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("solve differs at %d: %v fresh, %v reused", i, a, b)
				}
			}
		}
		// Residual checks are only meaningful when the accepted basis is not
		// pathologically ill-conditioned; a tiny pivot relative to the
		// largest one is the cheap proxy.
		minD, maxD := math.Inf(1), 0.0
		for k := 0; k < n; k++ {
			a := math.Abs(lu.udiag[k])
			if a < minD {
				minD = a
			}
			if a > maxD {
				maxD = a
			}
		}
		if minD < 1e-7*maxD {
			return
		}
		etas := new(EtaFile)
		ftran := func(b, out []float64) {
			lu.Solve(b, out)
			etas.Apply(out)
		}
		btran := btranOf(lu, etas)
		checkFactors(t, n, accepted, ftran, btran)
		// One product-form replacement drawn from the rejected columns (or a
		// unit column when none were rejected), then re-verify. Every column
		// offered goes through the list-returning solves on the way, on the
		// fresh factors and on the reused ones, before the update and after.
		repl := sparseCol{ind: []int{n - 1, 0}, val: []float64{2, 1}}
		for _, c := range cols[len(accepted):] {
			if len(c.ind) > 0 {
				repl = c
				break
			}
		}
		sparseSolves := func() {
			for k, c := range append(cols[:len(cols):len(cols)], repl) {
				if len(c.ind) == 0 {
					continue
				}
				w, rho := checkSparseSolves(t, lu, etas, accepted, c, k%n)
				w2, rho2 := checkSparseSolves(t, re, etas, accepted, c, k%n)
				if !slices.Equal(w.Ind, w2.Ind) || !slices.Equal(w.Val, w2.Val) {
					t.Fatalf("FTRAN of %v: %v %v on fresh factors, %v %v on reused ones", c, w.Ind, w.Val, w2.Ind, w2.Val)
				}
				if !slices.Equal(rho.Ind, rho2.Ind) || !slices.Equal(rho.Val, rho2.Val) {
					t.Fatalf("BTRAN of e_%d: %v %v on fresh factors, %v %v on reused ones", k%n, rho.Ind, rho.Val, rho2.Ind, rho2.Val)
				}
			}
		}
		sparseSolves()
		r := int(dim) % n
		if w, _ := checkSparseSolves(t, lu, etas, accepted, repl, r); etas.Append(r, w, 1e-6) {
			accepted[r] = repl
			checkFactors(t, n, accepted, ftran, btran)
			sparseSolves()
		}
	})
}

// checkAgedEtas is FuzzSparseFactors' aged-eta arm: an indexed
// n-dimensional eta file drawn from data is grown past 100 updates,
// marked, grown, truncated to the mark and to one before it, regrown, its
// index dropped and rebuilt, reset and regrown, then its index turned on
// again for twice the dimension and the file grown over all of it. After
// each step every probe vector's indexed walks are held to the full walks
// bit for bit — values, lists in order and updates applied — and the index
// to the file (requireIndexed). Entries and probes come from data's bytes, as small
// multiples of 1/8, so sums cancel to exact zeros and listed zeros turn
// up.
func checkAgedEtas(t *testing.T, n int, data []byte) {
	t.Helper()
	if len(data) == 0 {
		data = []byte{0}
	}
	at := 0
	next := func() int { at++; return int(data[at%len(data)]) + at/len(data) }
	value := func() float64 { return float64(next()%17-8) / 8 }
	var f EtaFile
	var w SparseVec
	w.Reset(n)
	grow := func(to int) {
		for f.Len() < to {
			w.Clear()
			r := next() % n
			for k := next() % 4; k > 0; k-- {
				w.Set(next()%n, value())
			}
			w.Set(r, float64(1+next()%3)*(1-2*float64(next()%2)))
			if !f.Append(r, &w, 1e-12) {
				t.Fatalf("update %d refused", f.Len())
			}
		}
	}
	probes := func(step string) {
		t.Helper()
		requireIndexed(t, &f, step)
		var a, b SparseVec
		for probe := 0; probe < 6; probe++ {
			a.Reset(n)
			b.Reset(n)
			for k := 1 + next()%3; k > 0; k-- {
				i, v := next()%n, value()
				a.Set(i, v)
				b.Set(i, v)
			}
			_, applied := f.ApplySparse(&a)
			full := 0
			for i := range f.etas {
				if f.etas[i].ftran(&b) {
					full++
				}
			}
			requireSameVec(t, step+": FTRAN", &a, &b, applied, full)
			_, applied = f.ApplyT(&a)
			full = 0
			for i := len(f.etas) - 1; i >= 0; i-- {
				if f.etas[i].btran(&b) {
					full++
				}
			}
			requireSameVec(t, step+": BTRAN", &a, &b, applied, full)
		}
	}
	f.Index(true, n)
	grow(50)
	short := f.Mark()
	grow(130)
	probes("130 updates")
	long := f.Mark()
	grow(150)
	probes("grown past a mark")
	f.Truncate(long)
	probes("truncated to the mark")
	f.Truncate(short)
	probes("truncated to an earlier mark")
	grow(120)
	probes("regrown")
	f.Index(false, n)
	probes("index dropped")
	f.Index(true, n)
	probes("index rebuilt")
	f.Reset()
	probes("reset")
	grow(110)
	probes("reset and regrown")
	n *= 2 // the file of a kernel rebuilt for a larger LP
	w.Reset(n)
	f.Index(true, n)
	probes("index widened")
	grow(f.Len() + 60)
	probes("widened and grown")
}

// requireSameVec fails unless the indexed walk's a and applied match the
// full walk's b and full to the bit.
func requireSameVec(t *testing.T, what string, a, b *SparseVec, applied, full int) {
	t.Helper()
	if applied != full || !slices.Equal(a.Ind, b.Ind) {
		t.Fatalf("%s: the indexed walk applied %d updates and listed %v, the full walk %d and %v", what, applied, a.Ind, full, b.Ind)
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			t.Fatalf("%s: entry %d is %v indexed, %v in full", what, i, a.Val[i], b.Val[i])
		}
	}
}

// requireIndexed checks f's index against its updates: on, every
// position's two lists are the updates pivoting at it and touching it,
// newest first; off, every list is empty.
func requireIndexed(t *testing.T, f *EtaFile, step string) {
	t.Helper()
	x := &f.ix
	for p := 0; p < len(x.at); p++ {
		var wantAt, wantTouch, gotAt, gotTouch []int
		if x.on {
			for i := f.Len() - 1; i >= 0; i-- {
				e := &f.etas[i]
				if e.r == p {
					wantAt = append(wantAt, i)
				}
				if e.r == p || slices.Contains(e.ind, p) {
					wantTouch = append(wantTouch, i)
				}
			}
		}
		for k := x.at[p]; k > 0; k = f.etas[k-1].older {
			gotAt = append(gotAt, k-1)
		}
		for k := x.touch[p]; k > 0; k = x.nodes[k-1].older {
			gotTouch = append(gotTouch, x.nodes[k-1].eta)
		}
		if !slices.Equal(gotAt, wantAt) || !slices.Equal(gotTouch, wantTouch) {
			t.Fatalf("%s: position %d lists %v pivoting and %v touching, want %v and %v", step, p, gotAt, gotTouch, wantAt, wantTouch)
		}
	}
	for _, m := range x.mark {
		if m != 0 {
			t.Fatalf("%s: a walk left its worklist marked", step)
		}
	}
}
