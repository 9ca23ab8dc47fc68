package kernels

import (
	"math"

	"phideep/internal/parallel"
)

// Serial cost table: what each kernel that submits a parallel region takes
// on one worker, in nanoseconds per unit of work. Each coefficient is the
// slowest of four runs of the named sub-benchmark of BenchmarkSerialCost
// (cost_test.go), rounded up; the sub-benchmark times the kernel serially
// at the benchmark workloads' shapes, on the two-vCPU AVX-512 host:
//
//	go test -run '^$' -bench SerialCost -count 4 ./internal/kernels/
//
// A kernel passes units × coefficient with each region it submits, and
// parallel.Pool runs the region on the caller when its blocks would finish
// before a woken helper starts. A coefficient too low inlines regions that
// should fork; one too high only forks regions that could have run inline,
// as every region did before the cutoff. So a kernel measured at several
// shapes is charged its slowest.
const (
	// Packed GEMM, both precisions, ns per multiply-add: gemm64-conv
	// (0.21–0.27, the narrow conv GEMMs); gemm64-small reads 0.11–0.12
	// and gemm64-large 0.072–0.076.
	nsPackedFMA = 0.3
	// Scalar GEMM rows (the Parallel level), ns per multiply-add:
	// gemm64-scalar (1.06–1.37).
	nsScalarFMA = 1.4
	// Sigmoid on the vector path, ns per element: sigmoid (2.40–2.62).
	nsSigmoid = 3
	// SampleBernoulli and AddGaussianNoise, ns per element: sample
	// (11.0–13.8) and noise (30.9–42.4).
	nsSample = 14
	nsNoise  = 45
	// One streaming pass over one to three operands (Axpy, AddBiasRow,
	// Scale, Sub, MulElem, SigmoidPrimeFromY, AddKLSparsityDelta,
	// SumSquaredDiff, the GEMM's beta scaling), ns per element:
	// axpy (1.22–1.53).
	nsAxpy = 1.6
	// ColSums and ConvBiasGrad, ns per input element: colsums
	// (0.71–0.82).
	nsColSums = 0.9
	// Im2col and Col2im, ns per patch-matrix element: im2col (3.39–4.29)
	// and col2im (5.09–5.83).
	nsIm2col = 4.5
	nsCol2im = 6
	// MaxPool and MaxPoolBackward, ns per input element: maxpool
	// (9.6–11.2) and maxpool-backward (2.53–2.97).
	nsMaxPool     = 12
	nsMaxPoolBack = 3
	// SoftmaxRows, CrossEntropyOneHot and CountArgmaxMatches, ns per
	// element: softmax (22.4–31.5).
	nsSoftmax = 32
)

// cost returns the estimated serial nanoseconds of units of work at
// nsPerUnit each.
func cost(nsPerUnit float64, units ...int) float64 {
	ns := nsPerUnit
	for _, u := range units {
		ns *= float64(u)
	}
	return ns
}

// regionMode lets the kernels' tests force every region down one branch
// of the pool's decision; the zero value submits the estimates.
type regionMode int

const (
	estimated regionMode = iota
	forceInline
	forceFork
)

// regions is the test seam of the serial cutoff. Only tests set it, and
// only while no kernel runs.
var regions regionMode

// team returns the handle through which a kernel at lvl submits a region
// estimated at ns serial nanoseconds: the pool at the parallel levels
// when it has helpers, otherwise none, and every region then runs as one
// block on the caller and counts nowhere. It is the kernels' one
// parallel-dispatch decision; whether a region on a pool forks or runs
// inline is the pool's, from ns.
func team(pool *parallel.Pool, lvl Level, ns float64) parallel.Costed {
	if !lvl.IsParallel() || pool == nil || pool.Workers() == 1 {
		pool = nil
	}
	switch regions {
	case forceInline:
		ns = 0
	case forceFork:
		ns = math.Inf(1)
	}
	return pool.Cost(ns)
}
