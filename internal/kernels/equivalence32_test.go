package kernels

import (
	"fmt"
	"math"
	"testing"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Cross-precision equivalence suite: the float32 kernels must match the
// float64 Naive oracle within a tolerance that scales with the reduction
// length (each of the k accumulation steps can contribute half an ulp of
// float32), over odd shapes, strided views, all four trans combinations,
// alpha/beta cycling and every optimization level — and be bit-identical
// across repeated runs and worker counts at a fixed seed. This is the
// contract DESIGN.md §11 documents for the reduced-precision serving path.

// stridedRand32 is stridedRand in float32.
func stridedRand32(r *rng.RNG, rows, cols, pad int) *tensor.Matrix32 {
	return randStrided[float32](r, rows, cols, pad)
}

// to64 widens a possibly-strided Matrix32 to a packed f64 matrix, reading
// only the valid lanes.
func to64(m *tensor.Matrix32) *tensor.Matrix {
	out := tensor.NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		src, dst := m.RowView(i), out.RowView(i)
		for j, v := range src {
			dst[j] = float64(v)
		}
	}
	return out
}

// gemm32Tol bounds |f32 result − f64 oracle| for a length-k reduction of
// [-1,1) operands: k accumulation steps and the final store each round to
// float32 (ulp ≈ 1.19e-7 at 1.0, partial sums can reach k in magnitude),
// plus slack for the alpha/beta fold.
func gemm32Tol(k int) float64 {
	return 1.2e-7 * (4*float64(k) + 16)
}

func compareToOracle32(t *testing.T, ctx string, got *tensor.Matrix32, want *tensor.Matrix, tol float64) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		gr, wr := got.RowView(i), want.RowView(i)
		for j := range wr {
			if d := math.Abs(float64(gr[j]) - wr[j]); d > tol {
				t.Fatalf("%s: C[%d,%d] = %v, f64 oracle %v (diff %g > tol %g)", ctx, i, j, gr[j], wr[j], d, tol)
			}
		}
	}
}

func runGemm32Case(t *testing.T, pool *parallel.Pool, r *rng.RNG, m, k, n int, transA, transB bool, alpha, beta float32, pad int) {
	t.Helper()
	ar, ac := m, k
	if transA {
		ar, ac = k, m
	}
	br, bc := k, n
	if transB {
		br, bc = n, k
	}
	a := stridedRand32(r, ar, ac, pad)
	b := stridedRand32(r, br, bc, (pad+1)%4)
	c0 := stridedRand32(r, m, n, pad)

	// The oracle is the f64 Naive kernel on exactly-widened operands: the
	// difference to it is pure float32 rounding, which gemm32Tol bounds.
	want := to64(c0)
	Gemm(nil, Naive, transA, transB, float64(alpha), to64(a), to64(b), float64(beta), want)
	tol := gemm32Tol(k)

	for _, lvl := range Levels {
		c := &tensor.Matrix32{Rows: c0.Rows, Cols: c0.Cols, Stride: c0.Stride, Data: append([]float32(nil), c0.Data...)}
		Gemm32(pool, lvl, transA, transB, alpha, a, b, beta, c)
		tn := map[bool]string{false: "N", true: "T"}
		ctx := fmt.Sprintf("%s/%s%s/%dx%dx%d/alpha=%v,beta=%v", lvl, tn[transA], tn[transB], m, k, n, alpha, beta)
		compareToOracle32(t, ctx, c, want, tol)
		checkPadding(t, ctx, c)
	}
	checkPadding(t, "input A", a)
	checkPadding(t, "input B", b)
}

// TestGemm32MatchesF64Oracle sweeps odd m,k,n triples (crossing the mr32=8
// and nr32=16 tile edges and the kcBlock/ncBlock panel edges), cycling
// trans combos, alpha/beta and view padding per case.
func TestGemm32MatchesF64Oracle(t *testing.T) {
	dims := []int{1, 3, 17, 64, 65, 257}
	transCombos := [4][2]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	coeffs := []float32{0, 1, -0.5}
	pool := parallel.NewPool(4)
	defer pool.Close()
	r := rng.New(23)
	idx := 0
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				tc := transCombos[idx%4]
				alpha := coeffs[idx%3]
				beta := coeffs[(idx/3)%3]
				pad := idx % 4
				idx++
				runGemm32Case(t, pool, r, m, k, n, tc[0], tc[1], alpha, beta, pad)
			}
		}
	}
}

// TestGemm32TransAlphaBetaExhaustive crosses all trans combinations with
// every alpha/beta pair on one odd, strided shape.
func TestGemm32TransAlphaBetaExhaustive(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	r := rng.New(29)
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			for _, alpha := range []float32{0, 1, -0.5} {
				for _, beta := range []float32{0, 1, -0.5} {
					runGemm32Case(t, pool, r, 17, 65, 33, transA, transB, alpha, beta, 3)
				}
			}
		}
	}
}

// TestGemm32Deterministic pins the serving-path determinism claim: at a
// fixed seed the packed f32 GEMM produces bit-identical floats across
// repeated runs and across worker counts (every C tile is written by one
// worker, k-panels accumulate in a fixed order).
func TestGemm32Deterministic(t *testing.T) {
	r := rng.New(31)
	a := stridedRand32(r, 65, 257, 2)
	b := stridedRand32(r, 257, 33, 1)
	ref := tensor.NewMatrix32(65, 33)
	Gemm32(nil, Blocked, false, false, 1.25, a, b, 0.5, ref)
	for _, workers := range []int{1, 2, 3, 7} {
		pool := parallel.NewPool(workers)
		for rep := 0; rep < 2; rep++ {
			c := tensor.NewMatrix32(65, 33)
			Gemm32(pool, ParallelBlocked, false, false, 1.25, a, b, 0.5, c)
			for i := 0; i < c.Rows; i++ {
				for j := 0; j < c.Cols; j++ {
					if c.At(i, j) != ref.At(i, j) {
						t.Fatalf("workers=%d rep=%d: C[%d,%d] = %v, want bit-identical %v", workers, rep, i, j, c.At(i, j), ref.At(i, j))
					}
				}
			}
		}
		pool.Close()
	}
}

// TestSoftmax32MatchesF64 bounds the row-softmax against the f64 kernel:
// probabilities live in [0,1], so the bound is a few float32 ulps plus the
// exp evaluation error.
func TestSoftmax32MatchesF64(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	r := rng.New(37)
	for _, shape := range [][2]int{{1, 1}, {3, 10}, {17, 65}, {64, 7}} {
		rows, cols := shape[0], shape[1]
		src := stridedRand32(r, rows, cols, 2)
		want := tensor.NewMatrix(rows, cols)
		SoftmaxRows(nil, Naive, want, to64(src))
		for _, lvl := range Levels {
			dst := tensor.NewMatrix32(rows, cols)
			SoftmaxRows(pool, lvl, dst, src)
			if d := tensor.MaxAbsDiff32(dst, want); d > 1e-6 {
				t.Fatalf("%s %dx%d: softmax diff %g", lvl, rows, cols, d)
			}
			// Rows must still sum to 1 within float32 rounding.
			for i := 0; i < rows; i++ {
				var sum float64
				for _, v := range dst.RowView(i) {
					sum += float64(v)
				}
				if math.Abs(sum-1) > 1e-5 {
					t.Fatalf("%s row %d sums to %v", lvl, i, sum)
				}
			}
		}
		checkPadding(t, "softmax input", src)
	}
}

// TestSigmoid32AndBias32MatchF64 bounds the fused-forward building blocks
// (bias add then sigmoid, the y = σ(xW+b) epilogue) against their f64
// twins.
func TestSigmoid32AndBias32MatchF64(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	r := rng.New(41)
	rows, cols := 19, 33
	src := stridedRand32(r, rows, cols, 1)
	bias := make(tensor.Vector32, cols)
	for j := range bias {
		bias[j] = float32(r.Uniform(-1, 1))
	}

	want := to64(src)
	AddBiasRow(nil, Naive, want, bias.To64())
	Sigmoid(nil, Naive, want, want)

	for _, lvl := range Levels {
		got := src.Clone()
		AddBiasRow(pool, lvl, got, bias)
		Sigmoid(pool, lvl, got, got)
		if d := tensor.MaxAbsDiff32(got, want); d > 1e-6 {
			t.Fatalf("%s: bias+sigmoid diff %g", lvl, d)
		}
	}
}
