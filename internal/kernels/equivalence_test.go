package kernels

import (
	"fmt"
	"math"
	"testing"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Cross-level equivalence suite: every GEMM/Gemv level — and the packed
// micro-kernel called directly — must match the Naive level within a
// 1e-12 relative tolerance, over odd shapes, strided views (Stride >
// Cols), all four trans combinations and alpha/beta in {0, 1, -0.5}.
// The blocked levels reorder the k summation (packed panels, register
// tiles, fused multiply-adds), so comparisons are toleranced rather than
// bitwise; determinism for a fixed level/worker count is covered by
// TestGemmDeterministicAcrossWorkerCounts.

// sentinel marks padding lanes of strided views; kernels must never read
// or write it.
const sentinel = -12345.5

// stridedRand builds a rows×cols matrix with Stride = cols+pad whose
// padding lanes hold the sentinel, filled with uniform values in [-1, 1).
func stridedRand(r *rng.RNG, rows, cols, pad int) *tensor.Matrix {
	return randStrided[float64](r, rows, cols, pad)
}

// randStrided is stridedRand at T: the same draws, rounded to T.
func randStrided[T tensor.Float](r *rng.RNG, rows, cols, pad int) *tensor.Dense[T] {
	m := &tensor.Dense[T]{Rows: rows, Cols: cols, Stride: cols + pad, Data: make([]T, rows*(cols+pad))}
	for i := range m.Data {
		m.Data[i] = sentinel
	}
	for i := 0; i < rows; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = T(r.Uniform(-1, 1))
		}
	}
	return m
}

// checkPadding fails the test if any padding lane of m lost its sentinel.
func checkPadding[T tensor.Float](t *testing.T, ctx string, m *tensor.Dense[T]) {
	t.Helper()
	if m.Stride == m.Cols {
		return
	}
	for i := 0; i < m.Rows; i++ {
		lane := m.Data[i*m.Stride+m.Cols : (i+1)*m.Stride]
		for j, v := range lane {
			if v != sentinel {
				t.Fatalf("%s: padding lane (%d,+%d) overwritten: %v", ctx, i, j, v)
			}
		}
	}
}

// bitsEqual reports whether a and b hold the same floats bit for bit
// (widening to float64 is exact, sign of zero included).
func bitsEqual[T tensor.Float](a, b []T) bool {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return len(a) == len(b)
}

// closeRel reports |got-want| <= 1e-12 relative to max(1, |want|).
func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
}

func compareToOracle(t *testing.T, ctx string, got, want *tensor.Matrix) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if g, w := got.At(i, j), want.At(i, j); !closeRel(g, w) {
				t.Fatalf("%s: C[%d,%d] = %v, oracle %v (diff %g)", ctx, i, j, g, w, g-w)
			}
		}
	}
}

// gemmRunner is one implementation under test.
type gemmRunner struct {
	name string
	run  func(pool *parallel.Pool, transA, transB bool, alpha float64, a, b *tensor.Matrix, beta float64, c *tensor.Matrix)
}

func gemmRunners() []gemmRunner {
	rs := []gemmRunner{}
	for _, lvl := range Levels {
		if lvl == Naive {
			continue // the oracle
		}
		lvl := lvl
		rs = append(rs, gemmRunner{lvl.String(), func(pool *parallel.Pool, transA, transB bool, alpha float64, a, b *tensor.Matrix, beta float64, c *tensor.Matrix) {
			Gemm(pool, lvl, transA, transB, alpha, a, b, beta, c)
		}})
	}
	// The packed path invoked directly, bypassing the Gemm dispatch, so the
	// micro-kernel is exercised even if dispatch heuristics change.
	rs = append(rs, gemmRunner{"packed-direct", func(pool *parallel.Pool, transA, transB bool, alpha float64, a, b *tensor.Matrix, beta float64, c *tensor.Matrix) {
		m, k := opShape(a, transA)
		_, n := opShape(b, transB)
		gemmPacked(pool, ParallelBlocked, transA, transB, alpha, a, b, nil, beta, c, m, k, n)
	}})
	rs = append(rs, gemmRunner{"prepacked", func(pool *parallel.Pool, transA, transB bool, alpha float64, a, b *tensor.Matrix, beta float64, c *tensor.Matrix) {
		GemmPacked(pool, ParallelBlocked, transA, alpha, a, PackB(b, transB), beta, c)
	}})
	return rs
}

func runGemmCase(t *testing.T, pool *parallel.Pool, r *rng.RNG, m, k, n int, transA, transB bool, alpha, beta float64, pad int) {
	t.Helper()
	ar, ac := m, k
	if transA {
		ar, ac = k, m
	}
	br, bc := k, n
	if transB {
		br, bc = n, k
	}
	a := stridedRand(r, ar, ac, pad)
	b := stridedRand(r, br, bc, (pad+1)%4)
	c0 := stridedRand(r, m, n, pad)

	want := c0.Clone()
	Gemm(nil, Naive, transA, transB, alpha, a, b, beta, want)

	for _, runner := range gemmRunners() {
		c := &tensor.Matrix{Rows: c0.Rows, Cols: c0.Cols, Stride: c0.Stride, Data: append([]float64(nil), c0.Data...)}
		runner.run(pool, transA, transB, alpha, a, b, beta, c)
		ctx := caseName(runner.name, m, k, n, transA, transB, alpha, beta)
		compareToOracle(t, ctx, c, want)
		checkPadding(t, ctx, c)
	}
	checkPadding(t, "input A", a)
	checkPadding(t, "input B", b)
}

func caseName(runner string, m, k, n int, transA, transB bool, alpha, beta float64) string {
	tn := map[bool]string{false: "N", true: "T"}
	return fmt.Sprintf("%s/%s%s/%dx%dx%d/alpha=%v,beta=%v",
		runner, tn[transA], tn[transB], m, k, n, alpha, beta)
}

// TestGemmCrossLevelEquivalence sweeps all m,k,n triples from the odd-size
// set, cycling trans combos, alpha/beta and view padding per case so every
// axis value appears against many shapes.
func TestGemmCrossLevelEquivalence(t *testing.T) {
	dims := []int{1, 3, 17, 64, 65, 257}
	transCombos := [4][2]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	coeffs := []float64{0, 1, -0.5}
	pool := parallel.NewPool(4)
	defer pool.Close()
	r := rng.New(7)
	idx := 0
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				tc := transCombos[idx%4]
				alpha := coeffs[idx%3]
				beta := coeffs[(idx/3)%3]
				pad := idx % 4
				idx++
				runGemmCase(t, pool, r, m, k, n, tc[0], tc[1], alpha, beta, pad)
			}
		}
	}
}

// TestGemmTransAlphaBetaExhaustive crosses all four trans combinations
// with every alpha/beta pair on one odd, strided shape, so no combination
// escapes the cycling of the sweep above.
func TestGemmTransAlphaBetaExhaustive(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	r := rng.New(11)
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			for _, alpha := range []float64{0, 1, -0.5} {
				for _, beta := range []float64{0, 1, -0.5} {
					runGemmCase(t, pool, r, 17, 65, 64, transA, transB, alpha, beta, 3)
				}
			}
		}
	}
}

// TestGemmDeterministicAcrossWorkerCounts checks the packed path's
// determinism claim: every C tile is written by one worker and k-panels
// accumulate in a fixed order, so Blocked, ParallelBlocked and any worker
// count produce bit-identical floats.
func TestGemmDeterministicAcrossWorkerCounts(t *testing.T) {
	r := rng.New(13)
	a := stridedRand(r, 65, 257, 2)
	b := stridedRand(r, 257, 33, 1)
	ref := tensor.NewMatrix(65, 33)
	Gemm(nil, Blocked, false, false, 1.25, a, b, 0.5, ref)
	for _, workers := range []int{1, 2, 3, 7} {
		pool := parallel.NewPool(workers)
		c := tensor.NewMatrix(65, 33)
		Gemm(pool, ParallelBlocked, false, false, 1.25, a, b, 0.5, c)
		pool.Close()
		for i := 0; i < c.Rows; i++ {
			for j := 0; j < c.Cols; j++ {
				if c.At(i, j) != ref.At(i, j) {
					t.Fatalf("workers=%d: C[%d,%d] = %v, want bit-identical %v", workers, i, j, c.At(i, j), ref.At(i, j))
				}
			}
		}
	}
}

// TestGemvCrossLevelEquivalence checks every Gemv level against Naive over
// odd shapes, both trans settings, strided A views and alpha/beta cycling
// — including shapes large enough to cross the parallel threshold of the
// transposed path.
func TestGemvCrossLevelEquivalence(t *testing.T) {
	dims := []int{1, 3, 17, 64, 65, 257}
	coeffs := []float64{0, 1, -0.5}
	pool := parallel.NewPool(4)
	defer pool.Close()
	r := rng.New(17)
	idx := 0
	for _, rows := range dims {
		for _, cols := range dims {
			for _, trans := range []bool{false, true} {
				alpha := coeffs[idx%3]
				beta := coeffs[(idx/3)%3]
				pad := idx % 3
				idx++
				a := stridedRand(r, rows, cols, pad)
				m, n := opShape(a, trans)
				x := tensor.NewVector(n).Randomize(r, -1, 1)
				y0 := tensor.NewVector(m).Randomize(r, -1, 1)

				want := y0.Clone()
				Gemv(nil, Naive, trans, alpha, a, x, beta, want)

				for _, lvl := range Levels {
					if lvl == Naive {
						continue
					}
					y := y0.Clone()
					Gemv(pool, lvl, trans, alpha, a, x, beta, y)
					for i := range want {
						if !closeRel(y[i], want[i]) {
							t.Fatalf("%s trans=%v %dx%d alpha=%v beta=%v: y[%d] = %v, oracle %v",
								lvl, trans, rows, cols, alpha, beta, i, y[i], want[i])
						}
					}
				}
				checkPadding(t, "gemv input A", a)
			}
		}
	}
}
