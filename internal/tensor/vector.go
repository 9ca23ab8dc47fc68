package tensor

import (
	"fmt"
	"math"

	"phideep/internal/rng"
)

// Vec is a dense vector with convenience helpers. It is a named slice
// type, so ordinary slice operations (len, indexing, range, append) work
// directly.
type Vec[T Float] []T

// Vector is the float64 vector every training path uses.
type Vector = Vec[float64]

// Vector32 is the float32 vector of the reduced-precision inference path.
type Vector32 = Vec[float32]

// NewVector allocates a zeroed length-n vector.
func NewVector(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("tensor: NewVector(%d): negative length", n))
	}
	return make(Vector, n)
}

// Clone returns a deep copy of v.
func (v Vec[T]) Clone() Vec[T] {
	out := make(Vec[T], len(v))
	copy(out, v)
	return out
}

// Zero sets every element to 0.
func (v Vec[T]) Zero() {
	clear(v)
}

// Fill sets every element to x.
func (v Vec[T]) Fill(x T) {
	for i := range v {
		v[i] = x
	}
}

// Apply sets each element to f(element) in place and returns v.
func (v Vec[T]) Apply(f func(T) T) Vec[T] {
	for i, x := range v {
		v[i] = f(x)
	}
	return v
}

// Randomize fills v with uniform values in [lo, hi), drawn in float64 and
// rounded to T.
func (v Vec[T]) Randomize(r *rng.RNG, lo, hi float64) Vec[T] {
	for i := range v {
		v[i] = T(r.Uniform(lo, hi))
	}
	return v
}

// Sum returns the sum of the elements.
func (v Vec[T]) Sum() T {
	var s T
	for _, x := range v {
		s += x
	}
	return s
}

// Dot returns the inner product of v and w; lengths must match.
func (v Vec[T]) Dot(w Vec[T]) T {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot length mismatch: %d vs %d", len(v), len(w)))
	}
	var s T
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec[T]) Norm2() float64 {
	var s T
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(float64(s))
}

// MaxAbs returns the largest absolute element, or 0 for an empty vector.
func (v Vec[T]) MaxAbs() T {
	var m T
	for _, x := range v {
		if a := T(math.Abs(float64(x))); a > m {
			m = a
		}
	}
	return m
}

// AsRow wraps v as a 1×n matrix sharing storage.
func (v Vec[T]) AsRow() *Dense[T] { return FromSlice(1, len(v), v) }

// AsCol wraps v as an n×1 matrix sharing storage.
func (v Vec[T]) AsCol() *Dense[T] { return FromSlice(len(v), 1, v) }

// To32 returns v rounded to float32, element by element to nearest.
func (v Vec[T]) To32() Vector32 { return convertVec[float32](v) }

// To64 returns v widened to float64.
func (v Vec[T]) To64() Vector { return convertVec[float64](v) }

func convertVec[U, T Float](v Vec[T]) Vec[U] {
	out := make(Vec[U], len(v))
	for i, x := range v {
		out[i] = U(x)
	}
	return out
}

// EqualVec reports whether a and b have the same length and elements
// within tol.
func EqualVec(a, b Vector, tol float64) bool {
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

// Convert copies src into dst, converting each element to U (rounded to
// nearest when narrowing). Lengths must match. This is the staging
// boundary conversion of the serving path.
func Convert[U, T Float](dst []U, src []T) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Convert length mismatch: %d vs %d", len(dst), len(src)))
	}
	for j, v := range src {
		dst[j] = U(v)
	}
}

// AsVec returns v at precision U: v itself when U is float64, else a
// rounded copy (see As).
func AsVec[U Float](v Vector) Vec[U] {
	if same, ok := any(v).(Vec[U]); ok {
		return same
	}
	return convertVec[U](v)
}
