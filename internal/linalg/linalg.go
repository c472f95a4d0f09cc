// Package linalg provides the small dense vector and matrix helpers used by
// the optimization solvers. It is deliberately minimal: the simplex and
// projected-gradient solvers need little more than row operations, dot
// products and norms, and keeping the dependency surface tiny makes the
// solvers easy to audit.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned when operands have incompatible dimensions.
var ErrShape = errors.New("linalg: incompatible shapes")

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dot returns the inner product of v and w.
// It panics if the lengths differ; solver code always pairs equal lengths.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// AddScaled adds alpha*w to v in place.
func (v Vector) AddScaled(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// Scale multiplies every element of v by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute element of v (0 for an empty vector).
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	data       []float64
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, data: make([]float64, rows*cols)}
}

// Reset reshapes m into a zero Rows×Cols matrix, keeping its backing
// array when that is large enough. Solvers use it to reuse one tableau
// arena across solves instead of reallocating per solve.
func (m *Matrix) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	m.Rows, m.Cols, m.data = rows, cols, Resized(m.data, rows*cols)
	clear(m.data)
}

// Resized returns buf at length n with unspecified contents, reallocating
// only when n has outgrown its capacity: how the solvers' and planners'
// workspaces recycle a buffer from one solve to the next.
func Resized[S ~[]E, E any](buf S, n int) S {
	if cap(buf) < n {
		return make(S, n)
	}
	return buf[:n]
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) Vector { return Vector(m.data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes m*v.
func (m *Matrix) MulVec(v Vector) (Vector, error) {
	if len(v) != m.Cols {
		return nil, fmt.Errorf("%w: MulVec %dx%d by %d", ErrShape, m.Rows, m.Cols, len(v))
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Row(i).Dot(v)
	}
	return out, nil
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// ScaleRow multiplies row i by alpha in place.
func (m *Matrix) ScaleRow(i int, alpha float64) { m.Row(i).Scale(alpha) }

// AddScaledRow adds alpha*row(src) to row(dst) in place.
func (m *Matrix) AddScaledRow(dst int, alpha float64, src int) {
	m.Row(dst).AddScaled(alpha, m.Row(src))
}

// ApproxEqual reports whether a and b are element-wise within tol.
func ApproxEqual(a, b Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
