// Package linalg holds the linear algebra under internal/lp: the dense
// row-major matrix and row operations of the simplex tableau, here, and the
// sparse LU factors, eta file and index-listed vectors of the revised
// simplex, in sparselu.go. It is deliberately minimal — what the two
// kernels call and nothing else — which keeps the solvers easy to audit.
package linalg

import "fmt"

// Vector is a dense column vector.
type Vector []float64

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

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	data       []float64
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

// CopyFrom makes m a copy of src, keeping m's backing array when that is
// large enough.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.Rows, m.Cols, m.data = src.Rows, src.Cols, Resized(m.data, len(src.data))
	copy(m.data, src.data)
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

// Carve cuts the next n entries off slab, capped at their own length so
// that appending to them reallocates rather than writing into the rest.
func Carve[T any](slab *[]T, n int) []T {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) Vector { return Vector(m.data[i*m.Cols : (i+1)*m.Cols]) }

// ScaleRow multiplies row i by alpha in place.
func (m *Matrix) ScaleRow(i int, alpha float64) { m.Row(i).Scale(alpha) }
