package kernels

import (
	"fmt"
	"math"

	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Float32 variants of the forward-pass elementwise kernels, used by the
// reduced-precision inference replicas. Only the forward ops exist —
// sigmoid, bias add, softmax — because training (and its gradients) stays
// float64. Transcendentals evaluate in float64 and round once on store, so
// the only f32-specific error is representation, not algorithm.

func checkSameShape32(op string, a, b *tensor.Matrix32) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("kernels: %s shape mismatch: %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Sigmoid32 computes dst = 1/(1+exp(-src)) elementwise, as Sigmoid does.
// dst and src may be the same matrix.
func Sigmoid32(pool *parallel.Pool, lvl Level, dst, src *tensor.Matrix32) {
	checkSameShape32("Sigmoid32", dst, src)
	vec := vectorSigmoid(lvl)
	c := src.Cols
	dense := dst.Stride == c && src.Stride == c
	forRows(pool, lvl, src.Rows, func(lo, hi int) {
		if dense {
			sigmoidSpan32(dst.Data[lo*c:hi*c], src.Data[lo*c:hi*c], vec)
			return
		}
		for i := lo; i < hi; i++ {
			sigmoidSpan32(dst.RowView(i), src.RowView(i), vec)
		}
	})
}

func sigmoidSpan32(d, s []float32, vec bool) {
	j := 0
	if vec {
		j = vectorSpan(d, s, sigmoid32, sigmoidF32)
	}
	for ; j < len(s); j++ {
		d[j] = sigmoidF32(s[j])
	}
}

// sigmoidF32 evaluates the sigmoid in float64 and rounds once. It is not
// inlined because, inlined, the compiler widened each element into the
// register holding the previous element's result, and CVTSS2SD's merge
// into that register chained every Exp to the one before (2× slower).
//
//go:noinline
func sigmoidF32(v float32) float32 { return float32(sigmoid(float64(v))) }

// AddBiasRow32 adds the bias vector b to every row of m in place.
func AddBiasRow32(pool *parallel.Pool, lvl Level, m *tensor.Matrix32, b tensor.Vector32) {
	if len(b) != m.Cols {
		panic(fmt.Sprintf("kernels: AddBiasRow32 bias length %d, want %d", len(b), m.Cols))
	}
	forRows(pool, lvl, m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.RowView(i)
			for j := range row {
				row[j] += b[j]
			}
		}
	})
}

// SoftmaxRows32 computes a numerically stable row-wise softmax in float32,
// accumulating the exponential sum in float64 so wide rows lose no more
// precision than the final rounding.
func SoftmaxRows32(pool *parallel.Pool, lvl Level, dst, src *tensor.Matrix32) {
	checkSameShape32("SoftmaxRows32", dst, src)
	forRows(pool, lvl, src.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, d := src.RowView(i), dst.RowView(i)
			maxV := math.Inf(-1)
			for _, v := range s {
				if float64(v) > maxV {
					maxV = float64(v)
				}
			}
			sum := 0.0
			for j, v := range s {
				e := Exp(float64(v) - maxV)
				d[j] = float32(e)
				sum += e
			}
			inv := float32(1 / sum)
			for j := range d {
				d[j] *= inv
			}
		}
	})
}
