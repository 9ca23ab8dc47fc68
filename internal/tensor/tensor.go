// Package tensor implements the dense matrices and vectors that all
// phideep model math is written against.
//
// Matrices are row-major with an explicit stride, so a matrix can be either
// an owner of its backing slice or a rectangular view into another matrix
// (used by the minibatch loop to walk a data chunk without copying).
// Both precisions share one generic core, Dense[T] and Vec[T]: Matrix and
// Vector are its float64 instances, which training runs on, and Matrix32
// and Vector32 its float32 instances, which the reduced-precision serving
// path runs on.
// The package deliberately contains no compute kernels beyond trivial
// element access; GEMM and friends live in internal/kernels so that the
// optimization levels of the paper (naive, blocked, parallel, "MKL") stay
// in one place.
package tensor

import (
	"fmt"
	"math"

	"phideep/internal/rng"
)

// Float is the element type of a Dense matrix or Vec vector.
type Float interface{ float32 | float64 }

// Dense is a dense row-major matrix. Element (i, j) lives at
// Data[i*Stride+j]. Rows*Cols may be smaller than len(Data) when the matrix
// is a view. The zero value is an empty matrix.
type Dense[T Float] struct {
	Rows, Cols int
	Stride     int
	Data       []T
}

// Matrix is the float64 matrix every training path uses.
type Matrix = Dense[float64]

// Matrix32 is the float32 matrix of the reduced-precision inference path:
// halving the element width doubles the SIMD lanes per FMA and halves
// memory traffic.
type Matrix32 = Dense[float32]

// New allocates a zeroed r×c matrix.
func New[T Float](r, c int) *Dense[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d): negative dimension", r, c))
	}
	return &Dense[T]{Rows: r, Cols: c, Stride: c, Data: make([]T, r*c)}
}

// NewMatrix allocates a zeroed r×c float64 matrix.
func NewMatrix(r, c int) *Matrix { return New[float64](r, c) }

// NewMatrix32 allocates a zeroed r×c float32 matrix.
func NewMatrix32(r, c int) *Matrix32 { return New[float32](r, c) }

// FromSlice wraps data (row-major, length r*c) as an r×c matrix without
// copying. The caller must not alias the slice elsewhere with a different
// shape in mind.
func FromSlice[T Float](r, c int, data []T) *Dense[T] {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice(%d, %d): need %d elements, got %d", r, c, r*c, len(data)))
	}
	return &Dense[T]{Rows: r, Cols: c, Stride: c, Data: data}
}

// FromRows builds a matrix from a slice of equally long rows, copying.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("tensor: FromRows: row %d has %d elements, want %d", i, len(row), c))
		}
		copy(m.RowView(i), row)
	}
	return m
}

// At returns element (i, j).
func (m *Dense[T]) At(i, j int) T {
	m.checkIndex(i, j)
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Dense[T]) Set(i, j int, v T) {
	m.checkIndex(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Dense[T]) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d, %d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// RowView returns row i as a slice sharing the matrix's storage.
func (m *Dense[T]) RowView(i int) []T {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// RowsView returns rows [i, j) as a matrix view sharing storage with m.
func (m *Dense[T]) RowsView(i, j int) *Dense[T] {
	if i < 0 || j < i || j > m.Rows {
		panic(fmt.Sprintf("tensor: rows [%d, %d) out of range %d", i, j, m.Rows))
	}
	return &Dense[T]{Rows: j - i, Cols: m.Cols, Stride: m.Stride, Data: m.Data[i*m.Stride:]}
}

// IsView reports whether m shares storage laid out with gaps (stride larger
// than cols) or is a window over a larger backing slice.
func (m *Dense[T]) IsView() bool {
	return m.Stride != m.Cols || len(m.Data) != m.Rows*m.Cols
}

// Contiguous returns m if its rows are densely packed, or a packed copy.
func (m *Dense[T]) Contiguous() *Dense[T] {
	if m.Stride == m.Cols && len(m.Data) == m.Rows*m.Cols {
		return m
	}
	return m.Clone()
}

// Clone returns a packed deep copy of m.
func (m *Dense[T]) Clone() *Dense[T] {
	out := New[T](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.RowView(i), m.RowView(i))
	}
	return out
}

// CopyFrom copies src into m; shapes must match.
func (m *Dense[T]) CopyFrom(src *Dense[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch: %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.RowView(i), src.RowView(i))
	}
}

// Zero sets every element to 0.
func (m *Dense[T]) Zero() {
	for i := 0; i < m.Rows; i++ {
		clear(m.RowView(i))
	}
}

// Fill sets every element to v.
func (m *Dense[T]) Fill(v T) {
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Apply sets each element to f(element), in place, and returns m.
func (m *Dense[T]) Apply(f func(T) T) *Dense[T] {
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j, v := range row {
			row[j] = f(v)
		}
	}
	return m
}

// Randomize fills m with uniform values in [lo, hi), drawn in float64 and
// rounded to T.
func (m *Dense[T]) Randomize(r *rng.RNG, lo, hi float64) *Dense[T] {
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = T(r.Uniform(lo, hi))
		}
	}
	return m
}

// RandomizeNorm fills m with N(0, sigma²) values.
func (m *Dense[T]) RandomizeNorm(r *rng.RNG, sigma float64) *Dense[T] {
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = T(sigma * r.Norm())
		}
	}
	return m
}

// T returns a packed transpose copy of m.
func (m *Dense[T]) T() *Dense[T] {
	out := New[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// To32 returns a packed float32 copy of m, each element rounded to
// nearest: the copy-on-load conversion of the reduced-precision serving
// path.
func (m *Dense[T]) To32() *Matrix32 { return convert[float32](m) }

// To64 returns a packed float64 copy of m (exact from float32: every
// float32 is representable).
func (m *Dense[T]) To64() *Matrix { return convert[float64](m) }

// As returns m at precision U: m itself when U is float64, else a rounded
// packed copy. A serving snapshot at float64 thus shares the model's own
// immutable weights, and one at float32 rounds them once.
func As[U Float](m *Matrix) *Dense[U] {
	if same, ok := any(m).(*Dense[U]); ok {
		return same
	}
	return convert[U](m)
}

func convert[U, T Float](m *Dense[T]) *Dense[U] {
	out := New[U](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		src, dst := m.RowView(i), out.RowView(i)
		for j, v := range src {
			dst[j] = U(v)
		}
	}
	return out
}

// Equal reports whether a and b have the same shape and elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.RowView(i), b.RowView(i)
		for j := range ra {
			if math.Abs(ra[j]-rb[j]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, computed in float64. It panics on shape mismatch.
func MaxAbsDiff[T Float](a *Dense[T], b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	max := 0.0
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.RowView(i), b.RowView(i)
		for j := range ra {
			if d := math.Abs(float64(ra[j]) - rb[j]); d > max {
				max = d
			}
		}
	}
	return max
}

// MaxAbsDiff32 is MaxAbsDiff between a float32 matrix and its float64
// reference — the measure the cross-precision equivalence tests bound.
func MaxAbsDiff32(a *Matrix32, b *Matrix) float64 { return MaxAbsDiff(a, b) }

// Sum returns the sum of all elements.
func (m *Dense[T]) Sum() T {
	var s T
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.RowView(i) {
			s += v
		}
	}
	return s
}

// SumSquares returns the sum of squared elements (squared Frobenius norm).
func (m *Dense[T]) SumSquares() T {
	var s T
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.RowView(i) {
			s += v * v
		}
	}
	return s
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense[T]) FrobeniusNorm() float64 { return math.Sqrt(float64(m.SumSquares())) }

// Mean returns the arithmetic mean of all elements; 0 for an empty matrix.
func (m *Dense[T]) Mean() T {
	n := m.Rows * m.Cols
	if n == 0 {
		return 0
	}
	return m.Sum() / T(n)
}

// ColMeans returns the per-column mean of m as a length-Cols vector:
// out[j] = mean_i m[i,j]. Used for the average hidden activation ρ̂ of the
// sparse autoencoder.
func (m *Dense[T]) ColMeans() []T {
	out := make([]T, m.Cols)
	if m.Rows == 0 {
		return out
	}
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j, v := range row {
			out[j] += v
		}
	}
	inv := 1 / T(m.Rows)
	for j := range out {
		out[j] *= inv
	}
	return out
}

// String renders small matrices for debugging; large matrices are
// abbreviated to their shape.
func (m *Dense[T]) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		row := m.RowView(i)
		for j, v := range row {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", v)
		}
	}
	return s + "]"
}
