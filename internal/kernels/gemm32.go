package kernels

import (
	"fmt"
	"time"

	"phideep/internal/metrics"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Gemm32 computes C = alpha*op(A)*op(B) + beta*C in float32 at the given
// optimization level — the reduced-precision twin of Gemm for the
// forward-only serving path. Halving the element width doubles the SIMD
// lanes per fused multiply-add and halves memory traffic, the vector-width
// lever the paper's Phi speedups rest on; training math stays float64.
//
// The Blocked and ParallelBlocked levels run the packed, register-blocked
// 8x16 micro-kernel, paired into 8x32 on AVX-512 (gemm32_packed.go); Naive
// and Parallel run scalar row loops. All levels compute the same result up
// to float32 rounding and association order, and each is bit-deterministic
// for a fixed worker count.
//
// When metrics collection is enabled every call records into the
// precision-labeled kernels.gemm32.* family (calls, flops, seconds and the
// asm/go/scalar path taken), keeping the f64 kernels.gemm.* series clean
// for A/B comparison.
func Gemm32(pool *parallel.Pool, lvl Level, transA, transB bool, alpha float32, a, b *tensor.Matrix32, beta float32, c *tensor.Matrix32) {
	gemm32(pool, lvl, transA, transB, alpha, a, b, nil, beta, c)
}

// Gemm32Packed is Gemm32 with op(B) supplied as a pack-once handle: the
// blocked levels read the handle's panels instead of re-packing B on every
// call, the scalar levels read the handle's source matrix. Results are
// bit-identical to Gemm32 on the same operands at every level and worker
// count. Calls record into the same kernels.gemm32.* series, plus the
// kernels.gemm32.prepacked counter.
func Gemm32Packed(pool *parallel.Pool, lvl Level, transA bool, alpha float32, a *tensor.Matrix32, pb *PackedB32, beta float32, c *tensor.Matrix32) {
	gemm32(pool, lvl, transA, pb.transB, alpha, a, pb.b, pb, beta, c)
}

// gemm32 is the instrumented body shared by Gemm32 (pb nil) and
// Gemm32Packed.
func gemm32(pool *parallel.Pool, lvl Level, transA, transB bool, alpha float32, a, b *tensor.Matrix32, pb *PackedB32, beta float32, c *tensor.Matrix32) {
	if !metrics.Enabled() {
		gemm32Dispatch(pool, lvl, transA, transB, alpha, a, b, pb, beta, c)
		return
	}
	start := time.Now()
	tiled := gemm32Dispatch(pool, lvl, transA, transB, alpha, a, b, pb, beta, c)
	mGemm32Seconds.Observe(time.Since(start).Seconds())
	mGemm32Calls.Inc()
	if pb != nil {
		mGemm32Prepacked.Inc()
	}
	m, k := opShape32(a, transA)
	_, n := opShape32(b, transB)
	mGemm32Flops.Add(2 * float64(m) * float64(k) * float64(n))
	mGemm32Paths.record(tiled, false)
}

// gemm32Dispatch is the uninstrumented body: validate, then route to the
// packed micro-kernel (which takes its B panels from pb when non-nil) or
// the scalar row loops over b. It reports whether the packed micro-kernel
// ran.
func gemm32Dispatch(pool *parallel.Pool, lvl Level, transA, transB bool, alpha float32, a, b *tensor.Matrix32, pb *PackedB32, beta float32, c *tensor.Matrix32) (tiled bool) {
	m, ka := opShape32(a, transA)
	kb, n := opShape32(b, transB)
	if ka != kb {
		panic(fmt.Sprintf("kernels: Gemm32 inner dimension mismatch: %d vs %d", ka, kb))
	}
	if c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("kernels: Gemm32 output shape %dx%d, want %dx%d", c.Rows, c.Cols, m, n))
	}
	if m == 0 || n == 0 {
		return false
	}
	if ka == 0 || alpha == 0 {
		scaleC32(pool, lvl, beta, c)
		return false
	}
	if lvl.IsBlocked() {
		gemmPacked32(pool, lvl, transA, transB, alpha, a, b, pb, beta, c, m, ka, n)
		return true
	}
	scaleC32(pool, lvl, beta, c)

	// Both transposed: rewrite through a packed transpose of A so the
	// scalar kernels only handle three layouts, as in the f64 path.
	if transA && transB {
		return gemm32Dispatch(pool, lvl, false, true, alpha, a.T(), b, nil, 1, c)
	}

	rowRange := func(lo, hi int) {
		switch {
		case !transA && !transB:
			gemmNN32(alpha, a, b, c, lo, hi)
		case !transA && transB:
			gemmNT32(alpha, a, b, c, lo, hi)
		default: // transA && !transB
			gemmTN32(alpha, a, b, c, lo, hi)
		}
	}
	if lvl.IsParallel() && pool != nil && pool.Workers() > 1 {
		pool.For(m, parallel.Static, 0, rowRange)
	} else {
		rowRange(0, m)
	}
	return false
}

func opShape32(x *tensor.Matrix32, trans bool) (rows, cols int) {
	if trans {
		return x.Cols, x.Rows
	}
	return x.Rows, x.Cols
}

func scaleC32(pool *parallel.Pool, lvl Level, beta float32, c *tensor.Matrix32) {
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
	if lvl.IsParallel() && pool != nil && pool.Workers() > 1 {
		pool.For(c.Rows, parallel.Static, 0, scale)
	} else {
		scale(0, c.Rows)
	}
}

// gemmNN32 accumulates C[lo:hi,:] += alpha * A[lo:hi,:] * B with the scalar
// "ikj" loop.
func gemmNN32(alpha float32, a, b, c *tensor.Matrix32, lo, hi int) {
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

// gemmNT32 accumulates C[lo:hi,:] += alpha * A[lo:hi,:] * Bᵀ with a dot-
// product inner kernel.
func gemmNT32(alpha float32, a, b, c *tensor.Matrix32, lo, hi int) {
	k, n := a.Cols, c.Cols
	for i := lo; i < hi; i++ {
		arow, crow := a.RowView(i), c.RowView(i)
		for j := 0; j < n; j++ {
			brow := b.RowView(j)
			var s float32
			for l := 0; l < k; l++ {
				s += arow[l] * brow[l]
			}
			crow[j] += alpha * s
		}
	}
}

// gemmTN32 accumulates C[lo:hi,:] += alpha * Aᵀ[lo:hi,:] * B.
func gemmTN32(alpha float32, a, b, c *tensor.Matrix32, lo, hi int) {
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
