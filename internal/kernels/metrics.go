package kernels

import "phideep/internal/metrics"

// Wall-clock observability handles (DESIGN.md §"Observability"). Handles
// are resolved once here; every record site is guarded by metrics.Enabled,
// so with collection disabled the kernels pay one atomic load per call —
// never per element — and the packed path stays allocation-free.
var (
	// mGemmCalls / mGemmFlops / mGemmSeconds describe every Gemm call:
	// how many, how much arithmetic (2·m·k·n flops each), and the real
	// host seconds per call (exponential buckets, 1 µs – ~16 s).
	mGemmCalls   = metrics.Default().Counter("kernels.gemm.calls")
	mGemmFlops   = metrics.Default().FloatCounter("kernels.gemm.flops")
	mGemmSeconds = metrics.Default().Histogram("kernels.gemm.seconds", metrics.ExpBuckets(1e-6, 4, 12)...)

	// Micro-kernel path taken per Gemm call: the AVX2+FMA assembly tile,
	// the pure-Go register-tile fallback, or the scalar (unblocked) loops.
	mGemmPathAsm    = metrics.Default().Counter("kernels.gemm.path.asm")
	mGemmPathGo     = metrics.Default().Counter("kernels.gemm.path.go")
	mGemmPathScalar = metrics.Default().Counter("kernels.gemm.path.scalar")

	// The float32 inference GEMM records into its own precision-labeled
	// family so f32-vs-f64 throughput and path mix can be compared from one
	// /metrics snapshot.
	mGemm32Calls   = metrics.Default().Counter("kernels.gemm32.calls")
	mGemm32Flops   = metrics.Default().FloatCounter("kernels.gemm32.flops")
	mGemm32Seconds = metrics.Default().Histogram("kernels.gemm32.seconds", metrics.ExpBuckets(1e-6, 4, 12)...)

	// mGemm32Prepacked counts the gemm32 calls that took op(B) from a
	// pack-once handle (Gemm32Packed); they count in calls/flops/seconds
	// and the path counters too.
	mGemm32Prepacked = metrics.Default().Counter("kernels.gemm32.prepacked")

	mGemm32PathAsm    = metrics.Default().Counter("kernels.gemm32.path.asm")
	mGemm32PathGo     = metrics.Default().Counter("kernels.gemm32.path.go")
	mGemm32PathScalar = metrics.Default().Counter("kernels.gemm32.path.scalar")

	mGemvCalls = metrics.Default().Counter("kernels.gemv.calls")

	// Convolution lowering kernels (DESIGN.md §12): how many gathers and
	// pools ran, how many elements they moved, and the im2col wall time —
	// the overhead the lowering pays to reach the packed GEMM. The f32
	// serving variants record into the same family; the GEMM they feed is
	// already split by the gemm/gemm32 counters above.
	mConvIm2colCalls   = metrics.Default().Counter("kernels.conv.im2col.calls")
	mConvIm2colElems   = metrics.Default().FloatCounter("kernels.conv.im2col.elems")
	mConvIm2colSeconds = metrics.Default().Histogram("kernels.conv.im2col.seconds", metrics.ExpBuckets(1e-6, 4, 12)...)
	mConvCol2imCalls   = metrics.Default().Counter("kernels.conv.col2im.calls")
	mConvPoolCalls     = metrics.Default().Counter("kernels.conv.pool.calls")
	mConvPoolElems     = metrics.Default().FloatCounter("kernels.conv.pool.elems")
	mConvPoolSeconds   = metrics.Default().Histogram("kernels.conv.pool.seconds", metrics.ExpBuckets(1e-6, 4, 12)...)
	mConvBiasGradCalls = metrics.Default().Counter("kernels.conv.biasgrad.calls")

	// Pack-arena pool behaviour: reuse means a pooled scratch buffer was
	// large enough, grow means it had to reallocate. In steady state the
	// grow count stops moving — the zero-alloc claim, made observable.
	mArenaReuse = metrics.Default().Counter("kernels.pack.arena.reuse")
	mArenaGrow  = metrics.Default().Counter("kernels.pack.arena.grow")
)
