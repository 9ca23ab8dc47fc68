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

	// mGemmPrepacked counts the Gemm calls that took op(B) from a pack-once
	// handle (GemmPacked); they count in calls/flops/seconds and the path
	// counters too.
	mGemmPrepacked = metrics.Default().Counter("kernels.gemm.prepacked")

	// Micro-kernel path taken per Gemm call: the assembly tiles, the
	// pure-Go register-tile fallback, or no micro-kernel at all (the
	// scalar levels, an empty product, alpha == 0). path.avx512 is a
	// sub-counter of path.asm: a call served by the ZMM tiles counts in
	// both, so path.asm keeps meaning "any assembly micro-kernel".
	mGemmPaths = pathCounters{
		asm:    metrics.Default().Counter("kernels.gemm.path.asm"),
		avx512: metrics.Default().Counter("kernels.gemm.path.avx512"),
		goTile: metrics.Default().Counter("kernels.gemm.path.go"),
		scalar: metrics.Default().Counter("kernels.gemm.path.scalar"),
	}

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

	mGemm32Paths = pathCounters{
		asm:    metrics.Default().Counter("kernels.gemm32.path.asm"),
		avx512: metrics.Default().Counter("kernels.gemm32.path.avx512"),
		goTile: metrics.Default().Counter("kernels.gemm32.path.go"),
		scalar: metrics.Default().Counter("kernels.gemm32.path.scalar"),
	}

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

// pathCounters is one precision's kernels.gemm*.path.* family.
type pathCounters struct {
	asm, avx512, goTile, scalar *metrics.Counter
}

// record counts one call. ranTile is what gemmDispatch / gemm32Dispatch
// returned: whether the packed micro-kernel ran. narrow marks an f64 call
// on the narrow path, whose 4×8 tiles are assembly but never ZMM.
func (p pathCounters) record(ranTile, narrow bool) {
	switch {
	case !ranTile:
		p.scalar.Inc()
	case activePath == pathGo:
		p.goTile.Inc()
	default:
		p.asm.Inc()
		if activePath == pathAVX512 && !narrow {
			p.avx512.Inc()
		}
	}
}
