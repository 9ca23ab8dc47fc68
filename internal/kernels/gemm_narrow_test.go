package kernels

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Narrow-path suite: a GEMM whose op(B) is at most narrowN columns wide
// runs as one region per call, with full row tiles reading op(A) in place.
// The reference is the wide path on the same operands with op(B) padded by
// extra columns to narrowN+1 (which forces the wide path without a test
// hook); the narrow result must equal its first n columns bit for bit, on
// every kernel path and pool size, per call and pack-once.

// raceEnabled is set under the race detector, which drops a share of
// sync.Pool Puts on purpose (so pooled paths allocate there) and runs the
// pure-Go tiles an order of magnitude slower.
var raceEnabled bool

// opRand is a strided random matrix X with op(X) rows×cols.
func opRand(r *rng.RNG, rows, cols int, trans bool, pad int) *tensor.Matrix {
	if trans {
		return stridedRand(r, cols, rows, pad)
	}
	return stridedRand(r, rows, cols, pad)
}

// firstCols views the first n columns of op(x): a column window of x, or a
// row window when x is stored transposed.
func firstCols(x *tensor.Matrix, trans bool, n int) *tensor.Matrix {
	if trans {
		return x.RowsView(0, n)
	}
	return &tensor.Matrix{Rows: x.Rows, Cols: n, Stride: x.Stride, Data: x.Data}
}

// cloneStrided copies m with its stride and padding lanes.
func cloneStrided(m *tensor.Matrix) *tensor.Matrix {
	return &tensor.Matrix{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Data: slices.Clone(m.Data)}
}

// checkNarrow compares got, a copy of c0 whose first n columns the narrow
// GEMM wrote, with want, c0 after the wide GEMM: the first n columns must
// match want bit for bit, everything else (later columns, padding lanes)
// must still be c0.
func checkNarrow(t *testing.T, ctx string, got, want, c0 *tensor.Matrix, n int) {
	t.Helper()
	for i, v := range got.Data {
		ref := c0.Data[i]
		if i%got.Stride < n && i/got.Stride < got.Rows {
			ref = want.Data[i]
		}
		if math.Float64bits(v) != math.Float64bits(ref) {
			t.Fatalf("%s: C(%d,%d) = %v, want %v", ctx, i/got.Stride, i%got.Stride, v, ref)
		}
	}
}

func TestGemmNarrowMatchesWide(t *testing.T) {
	paths := availablePaths(t)
	var pools []*parallel.Pool
	for _, w := range []int{1, 2, 5} {
		pool := parallel.NewPool(w)
		defer pool.Close()
		pools = append(pools, pool)
	}
	coeffs := [2][2]float64{{1, 0}, {0.5, 2}}
	const wideN = narrowN + 1
	limit := 1 << 21 // elements of A: 4097×16384 would be 512 MiB
	if raceEnabled {
		limit = 1 << 12 // small shapes share C and the pools the same way
	}
	r := rng.New(83)
	combo := 0
	for _, m := range []int{1, 3, 4, 5, 25, 54, 4097} {
		for _, k := range []int{1, 25, 255, 256, 257, 16384} {
			if m*k > limit {
				continue
			}
			ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
			if m*k > 1<<16 {
				ns = []int{1, 6, 8, 9, 12, 16}
			}
			for _, n := range ns {
				tr, ab := transCombos[combo%4], coeffs[combo/4%2]
				combo++
				transA, transB, alpha, beta := tr[0], tr[1], ab[0], ab[1]
				pad := 1 + combo%3
				a := opRand(r, m, k, transA, pad)
				bw := opRand(r, k, wideN, transB, pad+1)
				c0 := stridedRand(r, m, wideN, pad)
				b := firstCols(bw, transB, n)
				pb := PackB(b, transB)
				for _, p := range paths {
					want := cloneStrided(c0)
					withPath(p, func() { Gemm(nil, Blocked, transA, transB, alpha, a, bw, beta, want) })
					for _, pool := range pools {
						got, packed := cloneStrided(c0), cloneStrided(c0)
						withPath(p, func() {
							Gemm(pool, ParallelBlocked, transA, transB, alpha, a, b, beta, firstCols(got, false, n))
							GemmPacked(pool, ParallelBlocked, transA, alpha, a, pb, beta, firstCols(packed, false, n))
						})
						ctx := fmt.Sprintf("workers=%d %s", pool.Workers(), caseName(pathNames[p], m, k, n, transA, transB, alpha, beta))
						checkNarrow(t, ctx, got, want, c0, n)
						checkNarrow(t, ctx+" GemmPacked", packed, want, c0, n)
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
	pool := parallel.NewPool(2)
	defer pool.Close()
	r := rng.New(89)
	a, b, c := randMatrix(r, 600, 25), randMatrix(r, 600, 6), tensor.NewMatrix(25, 6)
	pb := PackB(b, false)
	for name, call := range map[string]func(){
		"Gemm":       func() { Gemm(pool, ParallelBlocked, true, false, 1, a, b, 0, c) },
		"GemmPacked": func() { GemmPacked(pool, ParallelBlocked, true, 1, a, pb, 0, c) },
	} {
		if avg := testing.AllocsPerRun(50, call); avg > 0 {
			t.Errorf("narrow %s allocates %.2f objects per call", name, avg)
		}
	}
}
