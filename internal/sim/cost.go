package sim

import (
	"fmt"

	"phideep/internal/kernels"
)

// OpKind classifies a kernel launch for costing purposes.
type OpKind int

const (
	// OpGemm is a dense matrix multiply, costed at 2·M·K·N flops.
	OpGemm OpKind = iota
	// OpElem is an elementwise map/update over Elems elements.
	OpElem
	// OpReduce is a reduction over Elems elements (column sums, losses).
	OpReduce
	// OpSample is Bernoulli sampling over Elems elements — an elementwise
	// op with RNG cost per element.
	OpSample
	// OpIm2col is the convolution-lowering gather: Elems patch-matrix
	// elements copied from NHWC images, charged per element like an
	// elementwise op (the flops are index arithmetic, the traffic is the
	// KH·KW-fold read amplification the caller encodes in BytesPerElem).
	// The conv GEMM the gather feeds is costed as a plain OpGemm with
	// M = batch·OutH·OutW, K = KH·KW·C, N = F.
	OpIm2col
	// OpCol2im is the adjoint scatter of OpIm2col (backward through the
	// lowering), with read-modify-write traffic on the image gradient.
	OpCol2im
	// OpPool is max pooling (or its argmax-routed backward scatter):
	// Elems output elements, each comparing a Size² window, encoded by the
	// caller in FlopsPerElem/BytesPerElem.
	OpPool
)

func (k OpKind) String() string {
	switch k {
	case OpGemm:
		return "gemm"
	case OpElem:
		return "elem"
	case OpReduce:
		return "reduce"
	case OpSample:
		return "sample"
	case OpIm2col:
		return "im2col"
	case OpCol2im:
		return "col2im"
	case OpPool:
		return "pool"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op describes one kernel launch to the cost model.
type Op struct {
	Kind OpKind
	// GEMM dimensions (op(A): M×K, op(B): K×N).
	M, K, N int
	// Elementwise size and per-element costs.
	Elems        int
	FlopsPerElem float64
	BytesPerElem float64
	// Execution configuration.
	Level          kernels.Level
	Cores          int  // physical cores used (0 ⇒ all for parallel levels, 1 otherwise)
	ThreadsPerCore int  // software threads per core (0 ⇒ arch maximum)
	Vector         bool // whether the kernel is VPU-vectorized
	// Fused suppresses the per-region fork/join charge for all but the
	// first op of a fused parallel region — the "Improved OpenMP+MKL"
	// loop-combining optimization of Table I.
	Fused bool
}

// Flops returns the flop count the model charges for the op.
func (op Op) Flops() float64 {
	switch op.Kind {
	case OpGemm:
		return 2 * float64(op.M) * float64(op.K) * float64(op.N)
	default:
		f := op.FlopsPerElem
		if f == 0 {
			f = 1
		}
		return float64(op.Elems) * f
	}
}

// Bytes returns the main-memory traffic the model charges for the op at the
// level's reuse quality.
func (op Op) Bytes() float64 {
	switch op.Kind {
	case OpGemm:
		return op.Flops() * gemmBytesPerFlop(op.Level)
	default:
		b := op.BytesPerElem
		if b == 0 {
			b = 16 // one read + one write of a float64
		}
		return float64(op.Elems) * b
	}
}

// gemmBytesPerFlop models cache reuse per level: the naive loops restream
// operands, tiling cuts traffic, and the register-blocked vector kernel is
// near the compulsory minimum.
func gemmBytesPerFlop(lvl kernels.Level) float64 {
	switch lvl {
	case kernels.Naive, kernels.Parallel:
		// Unblocked loops restream the B panel from memory and achieve
		// poor row-buffer locality; 18.5 B/flop reproduces the paper's
		// Table I Baseline (≈16000 s) and OpenMP (≈890 s) rows.
		return 18.5
	case kernels.Blocked:
		return 2
	default: // ParallelBlocked
		return 0.35
	}
}

// resolveConfig fills the op's core/thread defaults for the arch.
func (a *Arch) resolveConfig(op Op) (cores, tpc int) {
	cores, tpc = op.Cores, op.ThreadsPerCore
	if tpc <= 0 || tpc > a.ThreadsPerCore {
		tpc = a.ThreadsPerCore
	}
	if cores <= 0 {
		if op.Level.IsParallel() {
			cores = a.Cores
		} else {
			cores = 1
		}
	}
	if cores > a.Cores {
		cores = a.Cores
	}
	if !op.Level.IsParallel() {
		cores, tpc = 1, 1
	}
	return cores, tpc
}

// OpTime returns the modeled execution time of op on a, in seconds,
// including fork/join synchronization (unless fused away) and any
// per-operation dispatch overhead.
func (a *Arch) OpTime(op Op) float64 {
	cores, tpc := a.resolveConfig(op)
	threads := cores * tpc

	var computeRate float64
	switch op.Kind {
	case OpGemm:
		if op.Vector {
			computeRate = a.VectorPeak(cores, tpc) * a.gemmEffRamp(op.Flops())
		} else {
			computeRate = a.ScalarPeak(cores, tpc)
		}
	default:
		if op.Vector {
			// Elementwise maps vectorize at half peak: they are not FMA
			// shaped and include lane shuffles / transcendentals.
			computeRate = a.VectorPeak(cores, tpc) * 0.5
		} else {
			computeRate = a.ScalarPeak(cores, tpc)
		}
	}
	memRate := a.bandwidth(cores)

	tCompute := op.Flops() / computeRate
	tMemory := op.Bytes() / memRate
	t := tCompute
	if tMemory > t {
		t = tMemory
	}
	if op.Level.IsParallel() && !op.Fused {
		t += a.SyncCost(threads)
	}
	t += a.PerOpOverhead
	return t
}

// gemmEffRamp is the size-dependent efficiency of the vectorized GEMM:
// GemmEffVector × w/(w+GemmWorkHalf). Small multiplies (small batches and
// small networks) cannot amortize packing and pipeline fill, which is why
// the Phi's advantage shrinks on small problems (Figs. 7 and 9).
func (a *Arch) gemmEffRamp(flops float64) float64 {
	if a.GemmWorkHalf <= 0 {
		return a.GemmEffVector
	}
	return a.GemmEffVector * flops / (flops + a.GemmWorkHalf)
}

// GemmRate reports the effective GEMM flop rate for a given configuration;
// used by the experiment harness to print achieved-GF columns.
func (a *Arch) GemmRate(op Op) float64 {
	t := a.OpTime(op)
	if t <= 0 {
		return 0
	}
	return op.Flops() / t
}
