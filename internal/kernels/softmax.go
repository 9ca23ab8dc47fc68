package kernels

import (
	"fmt"
	"math"

	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// SoftmaxRows computes a numerically stable row-wise softmax:
// dst[i,j] = exp(src[i,j] − max_i) / Σ_j exp(src[i,j] − max_i). dst and src
// may be the same matrix. Used by the supervised fine-tuning head.
// In float32 the max, the exponentials and their sum are evaluated in
// float64, so wide rows lose no more precision than the rounding on store.
func SoftmaxRows[T tensor.Float](pool *parallel.Pool, lvl Level, dst, src *tensor.Dense[T]) {
	checkSameShape("SoftmaxRows", dst, src)
	forRows(pool, lvl, src.Rows, src.Cols, nsSoftmax, func(lo, hi int) {
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
				d[j] = T(e)
				sum += e
			}
			inv := T(1 / sum)
			for j := range d {
				d[j] *= inv
			}
		}
	})
}

// CrossEntropyOneHot returns −Σ_ij y[i,j]·log(p[i,j]) for one-hot targets y
// and predicted probabilities p, with probabilities clamped away from zero.
func CrossEntropyOneHot(pool *parallel.Pool, lvl Level, p, y *tensor.Matrix) float64 {
	checkSameShape("CrossEntropyOneHot", p, y)
	const eps = 1e-12
	body := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			pr, yr := p.RowView(i), y.RowView(i)
			for j, yv := range yr {
				if yv != 0 {
					s -= yv * math.Log(math.Max(pr[j], eps))
				}
			}
		}
		return s
	}
	return team(pool, lvl, cost(nsSoftmax, p.Rows, p.Cols)).ReduceSum(p.Rows, body)
}

// CountArgmaxMatches returns the number of rows whose argmax in p equals
// the argmax in y (classification accuracy numerator for one-hot targets).
// Ties resolve to the lowest index in both operands.
func CountArgmaxMatches(pool *parallel.Pool, lvl Level, p, y *tensor.Matrix) int {
	checkSameShape("CountArgmaxMatches", p, y)
	argmax := func(row []float64) int {
		best, bestV := 0, math.Inf(-1)
		for j, v := range row {
			if v > bestV {
				best, bestV = j, v
			}
		}
		return best
	}
	body := func(lo, hi int) float64 {
		n := 0
		for i := lo; i < hi; i++ {
			if argmax(p.RowView(i)) == argmax(y.RowView(i)) {
				n++
			}
		}
		return float64(n)
	}
	return int(team(pool, lvl, cost(nsSoftmax, p.Rows, p.Cols)).ReduceSum(p.Rows, body))
}

// OneHot fills dst (n×classes) with one-hot rows for the given labels.
func OneHot(labels []int, dst *tensor.Matrix) {
	if len(labels) != dst.Rows {
		panic(fmt.Sprintf("kernels: OneHot with %d labels into %d rows", len(labels), dst.Rows))
	}
	dst.Zero()
	for i, l := range labels {
		if l < 0 || l >= dst.Cols {
			panic(fmt.Sprintf("kernels: OneHot label %d outside %d classes", l, dst.Cols))
		}
		dst.Set(i, l, 1)
	}
}
