package kernels

import (
	"math"
	"slices"
	"testing"

	"phideep/internal/metrics"
	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// withRegions runs f with every region's cost estimate replaced as mode
// says.
func withRegions(mode regionMode, f func()) {
	defer func(old regionMode) { regions = old }(regions)
	regions = mode
	f()
}

// bitsOf returns the IEEE-754 bits of each element, widened to float64
// (exact for float32).
func bitsOf[T tensor.Float](xs []T) []uint64 {
	out := make([]uint64, len(xs))
	for i, v := range xs {
		out[i] = math.Float64bits(float64(v))
	}
	return out
}

// randDense returns a rows×cols matrix of uniforms in [-2, 2).
func randDense[T tensor.Float](r *rng.RNG, rows, cols int) *tensor.Dense[T] {
	return tensor.New[T](rows, cols).Randomize(r, -2, 2)
}

// regionCase runs one kernel that submits parallel regions at size n
// (rows, or images for the conv kernels) on inputs that depend only on n,
// and returns the bits of everything it wrote.
type regionCase struct {
	name string
	run  func(pool *parallel.Pool, n int) []uint64
}

const lvlPB = ParallelBlocked

// Shapes of the conv kernels' cases.
var (
	cutConv = ConvShape{C: 2, H: 6, W: 6, F: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	cutPool = PoolShape{C: 3, H: 6, W: 6, Size: 2, Stride: 2}
)

// gemmCase is a GEMM case: C (n×cols, beta 0.5) += 1.25·A (n×k)·B (k×cols).
func gemmCase[T tensor.Float](name string, lvl Level, k, cols int) regionCase {
	return regionCase{name, func(pool *parallel.Pool, n int) []uint64 {
		r := rng.New(uint64(n))
		a, b, c := randDense[T](r, n, k), randDense[T](r, k, cols), randDense[T](r, n, cols)
		gemm(pool, lvl, false, false, 1.25, a, b, nil, 0.5, c)
		return bitsOf(c.Data)
	}}
}

// rowsCase is an elementwise case over an n×40 matrix.
func rowsCase[T tensor.Float](name string, f func(pool *parallel.Pool, r *rng.RNG, dst, src *tensor.Dense[T]) float64) regionCase {
	return regionCase{name, func(pool *parallel.Pool, n int) []uint64 {
		r := rng.New(uint64(n))
		dst, src := randDense[T](r, n, 40), randDense[T](r, n, 40)
		v := f(pool, r, dst, src)
		return append(bitsOf(dst.Data), math.Float64bits(v))
	}}
}

// regionCases holds every kernel that submits a region, at each
// precision where the kernel is generic, and both GEMM paths.
var regionCases = []regionCase{
	gemmCase[float64]("gemm-scalar", Parallel, 24, 20),
	gemmCase[float64]("gemm64-narrow", lvlPB, 40, 12),
	gemmCase[float64]("gemm64-wide", lvlPB, 40, 40),
	gemmCase[float32]("gemm32-narrow", lvlPB, 40, 12),
	gemmCase[float32]("gemm32-wide", lvlPB, 40, 40),
	rowsCase("sigmoid64", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix) float64 {
		Sigmoid(pool, lvlPB, dst, src)
		return 0
	}),
	rowsCase("sigmoid32", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix32) float64 {
		Sigmoid(pool, lvlPB, dst, src)
		return 0
	}),
	rowsCase("sigmoid-prime", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix) float64 {
		SigmoidPrimeFromY(pool, lvlPB, dst, src)
		return 0
	}),
	rowsCase("addbias64", func(pool *parallel.Pool, r *rng.RNG, dst, _ *tensor.Matrix) float64 {
		AddBiasRow(pool, lvlPB, dst, randDense[float64](r, 1, 40).Data)
		return 0
	}),
	rowsCase("addbias32", func(pool *parallel.Pool, r *rng.RNG, dst, _ *tensor.Matrix32) float64 {
		AddBiasRow(pool, lvlPB, dst, randDense[float32](r, 1, 40).Data)
		return 0
	}),
	rowsCase("axpy", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix) float64 {
		Axpy(pool, lvlPB, 0.3, src, dst)
		return 0
	}),
	rowsCase("scale", func(pool *parallel.Pool, _ *rng.RNG, dst, _ *tensor.Matrix) float64 {
		Scale(pool, lvlPB, 0.3, dst)
		return 0
	}),
	rowsCase("sub", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix) float64 {
		Sub(pool, lvlPB, dst, src, dst)
		return 0
	}),
	rowsCase("mulelem", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix) float64 {
		MulElem(pool, lvlPB, dst, src, dst)
		return 0
	}),
	rowsCase("colsums", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix) float64 {
		out := dst.RowView(0)
		ColSums(pool, lvlPB, src, out)
		return 0
	}),
	rowsCase("sample", func(pool *parallel.Pool, r *rng.RNG, dst, src *tensor.Matrix) float64 {
		Sigmoid(nil, Naive, src, src)
		SampleBernoulli(pool, lvlPB, dst, src, r)
		return 0
	}),
	rowsCase("noise", func(pool *parallel.Pool, r *rng.RNG, dst, src *tensor.Matrix) float64 {
		AddGaussianNoise(pool, lvlPB, dst, src, 0.7, r)
		return 0
	}),
	rowsCase("sum-squared-diff", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix) float64 {
		return SumSquaredDiff(pool, lvlPB, dst, src)
	}),
	rowsCase("kl-delta", func(pool *parallel.Pool, r *rng.RNG, dst, src *tensor.Matrix) float64 {
		AddKLSparsityDelta(pool, lvlPB, dst, randDense[float64](r, 1, 40).Data, src)
		return 0
	}),
	rowsCase("softmax64", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix) float64 {
		SoftmaxRows(pool, lvlPB, dst, src)
		return 0
	}),
	rowsCase("softmax32", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix32) float64 {
		SoftmaxRows(pool, lvlPB, dst, src)
		return 0
	}),
	rowsCase("cross-entropy", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix) float64 {
		SoftmaxRows(nil, Naive, src, src)
		return CrossEntropyOneHot(pool, lvlPB, src, dst)
	}),
	rowsCase("argmax-matches", func(pool *parallel.Pool, _ *rng.RNG, dst, src *tensor.Matrix) float64 {
		return float64(CountArgmaxMatches(pool, lvlPB, src, dst))
	}),
	{"im2col64", func(pool *parallel.Pool, n int) []uint64 {
		x := randDense[float64](rng.New(uint64(n)), n, cutConv.InDim())
		cols := tensor.New[float64](n*cutConv.OutH()*cutConv.OutW(), cutConv.ColK())
		Im2col(pool, lvlPB, cutConv, n, x, cols)
		return bitsOf(cols.Data)
	}},
	{"im2col32", func(pool *parallel.Pool, n int) []uint64 {
		x := randDense[float32](rng.New(uint64(n)), n, cutConv.InDim())
		cols := tensor.New[float32](n*cutConv.OutH()*cutConv.OutW(), cutConv.ColK())
		Im2col(pool, lvlPB, cutConv, n, x, cols)
		return bitsOf(cols.Data)
	}},
	{"col2im", func(pool *parallel.Pool, n int) []uint64 {
		dcols := randDense[float64](rng.New(uint64(n)), n*cutConv.OutH()*cutConv.OutW(), cutConv.ColK())
		dx := tensor.NewMatrix(n, cutConv.InDim())
		Col2im(pool, lvlPB, cutConv, n, dcols, dx)
		return bitsOf(dx.Data)
	}},
	{"maxpool64", func(pool *parallel.Pool, n int) []uint64 {
		x := randDense[float64](rng.New(uint64(n)), n, cutPool.InDim())
		y, arg := tensor.NewMatrix(n, cutPool.OutDim()), tensor.NewMatrix(n, cutPool.OutDim())
		MaxPool(pool, lvlPB, cutPool, n, x, y, arg)
		return append(bitsOf(y.Data), bitsOf(arg.Data)...)
	}},
	{"maxpool32", func(pool *parallel.Pool, n int) []uint64 {
		x := randDense[float32](rng.New(uint64(n)), n, cutPool.InDim())
		y, arg := tensor.NewMatrix32(n, cutPool.OutDim()), tensor.NewMatrix(n, cutPool.OutDim())
		MaxPool(pool, lvlPB, cutPool, n, x, y, arg)
		return append(bitsOf(y.Data), bitsOf(arg.Data)...)
	}},
	{"maxpool-backward", func(pool *parallel.Pool, n int) []uint64 {
		r := rng.New(uint64(n))
		x, dy := randDense[float64](r, n, cutPool.InDim()), randDense[float64](r, n, cutPool.OutDim())
		y, arg := tensor.NewMatrix(n, cutPool.OutDim()), tensor.NewMatrix(n, cutPool.OutDim())
		MaxPool(nil, Naive, cutPool, n, x, y, arg)
		dx := tensor.NewMatrix(n, cutPool.InDim())
		MaxPoolBackward(pool, lvlPB, cutPool, n, dy, arg, dx)
		return bitsOf(dx.Data)
	}},
	{"conv-bias-grad", func(pool *parallel.Pool, n int) []uint64 {
		dOut, db := randDense[float64](rng.New(uint64(n)), n, 20), tensor.NewMatrix(1, 20)
		ConvBiasGrad(pool, lvlPB, dOut, db)
		return bitsOf(db.Data)
	}},
}

var (
	cRegions = metrics.Default().Counter("parallel.regions")
	cInline  = metrics.Default().Counter("parallel.regions.inline")
)

// countRegions returns the regions f submitted and how many ran inline.
func countRegions(f func()) (regions, inline int64) {
	r0, i0 := cRegions.Value(), cInline.Value()
	f()
	return cRegions.Value() - r0, cInline.Value() - i0
}

// cutoffSize returns the smallest size at which one of c's regions forks
// on pool under the estimates, or 0 if none does up to 1<<15.
func cutoffSize(c regionCase, pool *parallel.Pool) int {
	forks := func(n int) bool {
		r, i := countRegions(func() { c.run(pool, n) })
		return r > i
	}
	hi := 1
	for !forks(hi) {
		if hi *= 2; hi > 1<<15 {
			return 0
		}
	}
	lo := hi / 2 // does not fork
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; forks(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestRegionsInlineMatchFork is the serial cutoff's property: every
// kernel that submits a region writes the same bits whether its regions
// run inline on the caller or fork, at pools of 2 and 5 workers. Each
// kernel runs at sizes just below and just above the size where the
// estimates start to fork (found by search and checked through the
// region counters), and at a few small and ragged sizes, with the
// estimates deciding and with every region forced down each branch. Under
// the race detector, which slows the search tenfold, only the pool of two
// runs.
func TestRegionsInlineMatchFork(t *testing.T) {
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	pools := []int{2, 5}
	if raceEnabled {
		pools = pools[:1]
	}
	for _, workers := range pools {
		pool := parallel.NewPool(workers)
		for _, c := range regionCases {
			cut := cutoffSize(c, pool)
			if cut < 2 {
				t.Fatalf("%s at %d workers: forks at size %d; the case must start below the cutoff", c.name, workers, cut)
			}
			if r, i := countRegions(func() { c.run(pool, cut-1) }); r == 0 || r != i {
				t.Fatalf("%s at %d workers, size %d: %d regions, %d inline; want all inline just below the cutoff", c.name, workers, cut-1, r, i)
			}
			for _, n := range []int{1, 3, workers + 1, cut - 1, cut, 2*cut + 1} {
				var inline, forked, estimated []uint64
				withRegions(forceInline, func() { inline = c.run(pool, n) })
				withRegions(forceFork, func() { forked = c.run(pool, n) })
				estimated = c.run(pool, n)
				if !slices.Equal(inline, forked) || !slices.Equal(inline, estimated) {
					t.Fatalf("%s at %d workers, size %d (cutoff %d): inline, forked and estimated runs differ", c.name, workers, n, cut)
				}
			}
		}
		pool.Close()
	}
}
