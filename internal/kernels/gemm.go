package kernels

import (
	"fmt"
	"time"

	"phideep/internal/metrics"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Gemm computes C = alpha*op(A)*op(B) + beta*C, where op(X) is X or Xᵀ
// according to transA/transB, at the given optimization level. pool may be
// nil for non-parallel levels. Shapes: op(A) is m×k, op(B) is k×n, C is m×n.
//
// The Blocked and ParallelBlocked levels run the packed, register-blocked
// micro-kernel (gemm_packed.go); Naive and Parallel run scalar row loops.
// All levels compute the same result up to floating-point association
// order.
//
// When metrics collection is enabled (internal/metrics), every call records
// its count, flop volume, wall-clock duration and the micro-kernel path
// taken (assembly, of which AVX-512 is a sub-count; Go fallback; or scalar
// when no micro-kernel ran); disabled, the instrumentation is one atomic
// load.
func Gemm(pool *parallel.Pool, lvl Level, transA, transB bool, alpha float64, a, b *tensor.Matrix, beta float64, c *tensor.Matrix) {
	gemm(pool, lvl, transA, transB, alpha, a, b, nil, beta, c)
}

// Gemm32 is Gemm in float32, for the forward-only serving path. Halving
// the element width doubles the SIMD lanes per fused multiply-add and
// halves memory traffic, the vector-width lever the paper's Phi speedups
// rest on; training math stays float64. The blocked levels run the 8×16
// tile, paired into 8×32 on AVX-512. Calls record into the
// precision-labeled kernels.gemm32.* family.
func Gemm32(pool *parallel.Pool, lvl Level, transA, transB bool, alpha float32, a, b *tensor.Matrix32, beta float32, c *tensor.Matrix32) {
	gemm(pool, lvl, transA, transB, alpha, a, b, nil, beta, c)
}

// GemmPacked is Gemm with op(B) supplied as a pack-once handle: the blocked
// levels read the handle's panels instead of re-packing B on every call,
// the scalar levels read the handle's source matrix. Results are
// bit-identical to Gemm (Gemm32) on the same operands at every level and
// worker count. Calls record into the same kernels.gemm{,32}.* series,
// plus the prepacked counter.
func GemmPacked[T tensor.Float](pool *parallel.Pool, lvl Level, transA bool, alpha T, a *tensor.Dense[T], pb *PackedB[T], beta T, c *tensor.Dense[T]) {
	gemm(pool, lvl, transA, pb.transB, alpha, a, pb.b, pb, beta, c)
}

// gemm is the instrumented body shared by every GEMM entry point (pb nil
// unless op(B) comes packed).
func gemm[T tensor.Float](pool *parallel.Pool, lvl Level, transA, transB bool, alpha T, a, b *tensor.Dense[T], pb *PackedB[T], beta T, c *tensor.Dense[T]) {
	if !metrics.Enabled() {
		gemmDispatch(pool, lvl, transA, transB, alpha, a, b, pb, beta, c)
		return
	}
	start := time.Now()
	tiled := gemmDispatch(pool, lvl, transA, transB, alpha, a, b, pb, beta, c)
	mt := prec[T]().m
	mt.seconds.Observe(time.Since(start).Seconds())
	mt.calls.Inc()
	if pb != nil {
		mt.prepacked.Inc()
	}
	m, k := opShape(a, transA)
	_, n := opShape(b, transB)
	mt.flops.Add(2 * float64(m) * float64(k) * float64(n))
	mt.paths.record(tiled, n <= narrowN[T]())
}

// gemmDispatch is the uninstrumented body: validate, then route to the
// packed micro-kernel (which takes its B panels from pb when non-nil) or
// the scalar row loops over b. It reports whether the packed micro-kernel
// ran.
func gemmDispatch[T tensor.Float](pool *parallel.Pool, lvl Level, transA, transB bool, alpha T, a, b *tensor.Dense[T], pb *PackedB[T], beta T, c *tensor.Dense[T]) (tiled bool) {
	m, ka := opShape(a, transA)
	kb, n := opShape(b, transB)
	if ka != kb {
		panic(fmt.Sprintf("kernels: Gemm inner dimension mismatch: %d vs %d", ka, kb))
	}
	if c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("kernels: Gemm output shape %dx%d, want %dx%d", c.Rows, c.Cols, m, n))
	}
	if m == 0 || n == 0 {
		return false
	}
	if ka == 0 || alpha == 0 {
		scaleC(pool, lvl, beta, c)
		return false
	}
	if lvl.IsBlocked() {
		// The packed path handles all four trans layouts natively (the
		// packing absorbs strides and transposes) and folds the beta
		// scaling into the first k-panel, so no separate scale pass runs.
		gemmPacked(pool, lvl, transA, transB, alpha, a, b, pb, beta, c, m, ka, n)
		return true
	}
	scaleC(pool, lvl, beta, c)

	// Both transposed: rewrite op(A)ᵀop(B)ᵀ using a packed transpose of A so
	// the scalar kernels below only handle three layouts. TT does not occur
	// in the training hot paths.
	if transA && transB {
		return gemmDispatch(pool, lvl, false, true, alpha, a.T(), b, nil, 1, c)
	}

	rowRange := func(lo, hi int) {
		switch {
		case !transA && !transB:
			gemmNN(alpha, a, b, c, lo, hi)
		case !transA && transB:
			gemmNT(alpha, a, b, c, lo, hi)
		default: // transA && !transB
			gemmTN(alpha, a, b, c, lo, hi)
		}
	}
	team(pool, lvl, cost(nsScalarFMA, m, ka, n)).For(m, parallel.Static, 0, rowRange)
	return false
}

func opShape[T tensor.Float](x *tensor.Dense[T], trans bool) (rows, cols int) {
	if trans {
		return x.Cols, x.Rows
	}
	return x.Rows, x.Cols
}

func scaleC[T tensor.Float](pool *parallel.Pool, lvl Level, beta T, c *tensor.Dense[T]) {
	if beta == 1 {
		return
	}
	scale := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := c.RowView(i)
			if beta == 0 {
				clear(row)
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	}
	team(pool, lvl, cost(nsAxpy, c.Rows, c.Cols)).For(c.Rows, parallel.Static, 0, scale)
}

// gemmNN accumulates C[lo:hi,:] += alpha * A[lo:hi,:] * B with the scalar
// "ikj" loop: streams B rows, accumulates into the C row.
func gemmNN[T tensor.Float](alpha T, a, b, c *tensor.Dense[T], lo, hi int) {
	k, n := a.Cols, c.Cols
	for i := lo; i < hi; i++ {
		arow, crow := a.RowView(i), c.RowView(i)
		for l := 0; l < k; l++ {
			av := alpha * arow[l]
			if av == 0 {
				continue
			}
			brow := b.RowView(l)
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

// gemmNT accumulates C[lo:hi,:] += alpha * A[lo:hi,:] * Bᵀ. Both operand
// rows are contiguous, so the inner kernel is a dot product.
func gemmNT[T tensor.Float](alpha T, a, b, c *tensor.Dense[T], lo, hi int) {
	k, n := a.Cols, c.Cols
	for i := lo; i < hi; i++ {
		arow, crow := a.RowView(i), c.RowView(i)
		for j := 0; j < n; j++ {
			brow := b.RowView(j)
			var s T
			for l := 0; l < k; l++ {
				s += arow[l] * brow[l]
			}
			crow[j] += alpha * s
		}
	}
}

// gemmTN accumulates C[lo:hi,:] += alpha * Aᵀ[lo:hi,:] * B, i.e. row i of C
// gathers column i of A. Used for weight gradients (Δᵀ·X patterns).
func gemmTN[T tensor.Float](alpha T, a, b, c *tensor.Dense[T], lo, hi int) {
	k, n := a.Rows, c.Cols // op(A) is (a.Cols)×(a.Rows)
	for l := 0; l < k; l++ {
		arow, brow := a.RowView(l), b.RowView(l)
		for i := lo; i < hi; i++ {
			av := alpha * arow[i]
			if av == 0 {
				continue
			}
			crow := c.RowView(i)
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}
