package kernels

import (
	"fmt"
	"math"
	"testing"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Narrow-path suite, run at both precisions: a GEMM whose op(B) is at most
// narrowN columns wide runs as one region per call, with full row tiles
// reading op(A) in place where the precision has a strided tile (f64) and
// packing it otherwise (f32). The reference is the wide path on the same
// operands with op(B) padded by extra columns to narrowN+1 (which forces
// the wide path without a test hook); the narrow result must equal its
// first n columns bit for bit, on every kernel path and pool size, per
// call and pack-once.

// raceEnabled is set under the race detector, which drops a share of
// sync.Pool Puts on purpose (so pooled paths allocate there) and runs the
// pure-Go tiles an order of magnitude slower.
var raceEnabled bool

// opRand is a strided random matrix X with op(X) rows×cols.
func opRand[T tensor.Float](r *rng.RNG, rows, cols int, trans bool, pad int) *tensor.Dense[T] {
	if trans {
		return randStrided[T](r, cols, rows, pad)
	}
	return randStrided[T](r, rows, cols, pad)
}

// firstCols views the first n columns of op(x): a column window of x, or a
// row window when x is stored transposed.
func firstCols[T tensor.Float](x *tensor.Dense[T], trans bool, n int) *tensor.Dense[T] {
	if trans {
		return x.RowsView(0, n)
	}
	return &tensor.Dense[T]{Rows: x.Rows, Cols: n, Stride: x.Stride, Data: x.Data}
}

// checkNarrow compares got, a copy of c0 whose first n columns the narrow
// GEMM wrote, with want, c0 after the wide GEMM: the first n columns must
// match want bit for bit, everything else (later columns, padding lanes)
// must still be c0.
func checkNarrow[T tensor.Float](t *testing.T, ctx string, got, want, c0 *tensor.Dense[T], n int) {
	t.Helper()
	for i, v := range got.Data {
		ref := c0.Data[i]
		if i%got.Stride < n && i/got.Stride < got.Rows {
			ref = want.Data[i]
		}
		if math.Float64bits(float64(v)) != math.Float64bits(float64(ref)) {
			t.Fatalf("%s: C(%d,%d) = %v, want %v", ctx, i/got.Stride, i%got.Stride, v, ref)
		}
	}
}

func TestGemmNarrowMatchesWide(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testNarrowMatchesWide[float64](t, 83, 4097, 16384, 1<<21) })
	// The f32 grid stops at m·k ≤ 2¹⁶ to bound the suite's run time. It
	// still crosses kc up to m = 54 (7 row tiles), runs 16 k-panels at
	// m ≤ 9, and reaches 33 row tiles at m = 257 for k ≤ 255.
	t.Run("f32", func(t *testing.T) { testNarrowMatchesWide[float32](t, 84, 257, 4096, 1<<16) })
}

// testNarrowMatchesWide sweeps m ∈ {1, mr−1, mr, mr+1, 25, 54, bigM} and k
// ∈ {1, 25, kc−1, kc, kc+1, bigK}, skipping m·k > limit: every n in
// 1…narrowN where m·k ≤ limit/32, and n ∈ {1, 6, nr, nr+1, 3nr/2, 2nr}
// above.
func testNarrowMatchesWide[T tensor.Float](t *testing.T, seed uint64, bigM, bigK, limit int) {
	paths := availablePaths(t)
	var pools []*parallel.Pool
	for _, w := range []int{1, 2, 5} {
		pool := parallel.NewPool(w)
		defer pool.Close()
		pools = append(pools, pool)
	}
	mr, nr := tileMR[T](), tileNR[T]()
	coeffs := [2][2]T{{1, 0}, {0.5, 2}}
	wideN := narrowN[T]() + 1
	if raceEnabled {
		limit = 1 << 12 // small shapes share C and the pools the same way
	}
	r := rng.New(seed)
	combo := 0
	for _, m := range []int{1, mr - 1, mr, mr + 1, 25, 54, bigM} {
		for _, k := range []int{1, 25, kcBlock - 1, kcBlock, kcBlock + 1, bigK} {
			if m*k > limit {
				continue
			}
			ns := []int{1, 6, nr, nr + 1, nr + nr/2, 2 * nr}
			if m*k <= limit>>5 {
				ns = ns[:0]
				for n := 1; n <= narrowN[T](); n++ {
					ns = append(ns, n)
				}
			}
			for _, n := range ns {
				tr, ab := transCombos[combo%4], coeffs[combo/4%2]
				combo++
				transA, transB, alpha, beta := tr[0], tr[1], ab[0], ab[1]
				pad := 1 + combo%3
				a := opRand[T](r, m, k, transA, pad)
				bw := opRand[T](r, k, wideN, transB, pad+1)
				c0 := randStrided[T](r, m, wideN, pad)
				b := firstCols(bw, transB, n)
				pb := PackB(b, transB)
				for _, p := range paths {
					want := cloneStrided(c0)
					withPath(p, func() { gemm(nil, Blocked, transA, transB, alpha, a, bw, nil, beta, want) })
					for _, pool := range pools {
						got, packed := cloneStrided(c0), cloneStrided(c0)
						withPath(p, func() {
							gemm(pool, ParallelBlocked, transA, transB, alpha, a, b, nil, beta, firstCols(got, false, n))
							GemmPacked(pool, ParallelBlocked, transA, alpha, a, pb, beta, firstCols(packed, false, n))
						})
						ctx := fmt.Sprintf("workers=%d %s", pool.Workers(), caseName(pathNames[p], m, k, n, transA, transB, float64(alpha), float64(beta)))
						checkNarrow(t, ctx, got, want, c0, n)
						checkNarrow(t, ctx+" packed", packed, want, c0, n)
					}
				}
			}
		}
	}
}

// TestGemmNarrowDoesNotAllocate: a steady-state narrow GEMM allocates
// nothing — its Ranger is the pooled gemmState itself, and every worker's
// arenas come from the pack pool.
func TestGemmNarrowDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	t.Run("f64", testNarrowDoesNotAllocate[float64])
	t.Run("f32", testNarrowDoesNotAllocate[float32])
}

func testNarrowDoesNotAllocate[T tensor.Float](t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	r := rng.New(89)
	a, b, c := randStrided[T](r, 600, 25, 0), randStrided[T](r, 600, 6, 0), tensor.New[T](25, 6)
	pb := PackB(b, false)
	for name, call := range map[string]func(){
		"per-call":  func() { gemm(pool, ParallelBlocked, true, false, 1, a, b, nil, 0, c) },
		"pack-once": func() { GemmPacked(pool, ParallelBlocked, true, 1, a, pb, 0, c) },
	} {
		if avg := testing.AllocsPerRun(50, call); avg > 0 {
			t.Errorf("narrow %s GEMM allocates %.2f objects per call", name, avg)
		}
	}
}
