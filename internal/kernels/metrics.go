package kernels

import "phideep/internal/metrics"

// Wall-clock observability handles (DESIGN.md §"Observability"). Handles
// are resolved once here; every record site is guarded by metrics.Enabled,
// so with collection disabled the kernels pay one atomic load per call —
// never per element — and the packed path stays allocation-free.
var (
	// Every Gemm call records into kernels.gemm.*, every Gemm32 call into
	// the precision-labeled kernels.gemm32.*, so f32-vs-f64 throughput and
	// path mix can be compared from one /metrics snapshot.
	gemm64Metrics = newGemmMetrics("kernels.gemm")
	gemm32Metrics = newGemmMetrics("kernels.gemm32")

	// Convolution lowering kernels (DESIGN.md §12): how many gathers and
	// pools ran, how many elements they moved, and their wall time — the
	// overhead the lowering pays to reach the packed GEMM, at either
	// precision; the GEMM they feed is already split by the gemm/gemm32
	// counters above.
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

// gemmMetrics is one precision's GEMM family under prefix:
//
//   - calls, flops, seconds: how many calls, how much arithmetic (2·m·k·n
//     flops each), and the real host seconds per call (exponential
//     buckets, 1 µs – ~16 s);
//   - prepacked: the calls that took op(B) from a pack-once handle
//     (GemmPacked), which count in everything else too;
//   - paths: the micro-kernel path that served each call.
type gemmMetrics struct {
	calls, prepacked *metrics.Counter
	flops            *metrics.FloatCounter
	seconds          *metrics.Histogram
	paths            pathCounters
}

func newGemmMetrics(prefix string) gemmMetrics {
	reg := metrics.Default()
	return gemmMetrics{
		calls:     reg.Counter(prefix + ".calls"),
		prepacked: reg.Counter(prefix + ".prepacked"),
		flops:     reg.FloatCounter(prefix + ".flops"),
		seconds:   reg.Histogram(prefix+".seconds", metrics.ExpBuckets(1e-6, 4, 12)...),
		paths: pathCounters{
			asm:    reg.Counter(prefix + ".path.asm"),
			avx512: reg.Counter(prefix + ".path.avx512"),
			goTile: reg.Counter(prefix + ".path.go"),
			scalar: reg.Counter(prefix + ".path.scalar"),
		},
	}
}

// pathCounters is one precision's path family: the assembly tiles, the
// pure-Go register-tile fallback, or no micro-kernel at all (the scalar
// levels, an empty product, alpha == 0). path.avx512 is a sub-counter of
// path.asm: a call served by the ZMM tiles counts in both, so path.asm
// keeps meaning "any assembly micro-kernel".
type pathCounters struct {
	asm, avx512, goTile, scalar *metrics.Counter
}

// record counts one call. ranTile is what gemmDispatch returned: whether
// the packed micro-kernel ran. narrow marks a call on the narrow path,
// whose tiles are assembly but never ZMM.
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
