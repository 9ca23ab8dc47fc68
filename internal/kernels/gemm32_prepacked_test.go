package kernels

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// cloneStrided32 copies m with its stride and padding lanes intact.
func cloneStrided32(m *tensor.Matrix32) *tensor.Matrix32 {
	return &tensor.Matrix32{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Data: append([]float32(nil), m.Data...)}
}

func bitsEqual32(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestGemm32PackedBitwise: a pack-once operand gives exactly Gemm32's
// bytes — padding lanes of C included — over the equivalence suite's shape
// grid (ragged, strided, trans combos and alpha/beta cycling per case) plus
// shapes that cross the ncBlock32 panel edge, at every level and for pools
// of 1, 2 and 5 workers.
func TestGemm32PackedBitwise(t *testing.T) {
	dims := []int{1, 3, 17, 64, 65, 257}
	shapes := [][3]int{{9, 300, 530}, {33, 513, 1025}, {5, 256, 512}}
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	transCombos := [4][2]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	coeffs := []float32{0, 1, -0.5}
	for _, workers := range []int{1, 2, 5} {
		pool := parallel.NewPool(workers)
		r := rng.New(41)
		for idx, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			transA, transB := transCombos[idx%4][0], transCombos[idx%4][1]
			alpha, beta := coeffs[(idx+1)%3], coeffs[(idx/3)%3]
			pad := idx % 4
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
			pb := PackB32(b, transB)
			for _, lvl := range Levels {
				want, got := cloneStrided32(c0), cloneStrided32(c0)
				Gemm32(pool, lvl, transA, transB, alpha, a, b, beta, want)
				Gemm32Packed(pool, lvl, transA, alpha, a, pb, beta, got)
				if !bitsEqual32(got.Data, want.Data) {
					t.Fatalf("workers=%d %s transA=%v transB=%v %dx%dx%d alpha=%v beta=%v: prepacked result differs from Gemm32",
						workers, lvl, transA, transB, m, k, n, alpha, beta)
				}
			}
			checkPadding32(t, "input B", b)
		}
		pool.Close()
	}
}

// TestPackedB32SharedAcrossGoroutines: one handle serves concurrent GEMMs
// (each with its own pool, A and C, as serving replicas have) and every one
// gets the sequential answer. Run under -race this is the read-only
// sharing claim.
func TestPackedB32SharedAcrossGoroutines(t *testing.T) {
	r := rng.New(43)
	b := stridedRand32(r, 300, 530, 1)
	pb := PackB32(b, false)
	const callers = 6
	as := make([]*tensor.Matrix32, callers)
	want := make([]*tensor.Matrix32, callers)
	for g := range as {
		as[g] = stridedRand32(r, 8+g, 300, 0)
		want[g] = tensor.NewMatrix32(8+g, 530)
		Gemm32(nil, Blocked, false, false, 1, as[g], b, 0, want[g])
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pool := parallel.NewPool(1 + g%3)
			defer pool.Close()
			for rep := 0; rep < 4; rep++ {
				c := tensor.NewMatrix32(8+g, 530)
				Gemm32Packed(pool, ParallelBlocked, false, 1, as[g], pb, 0, c)
				if !bitsEqual32(c.Data, want[g].Data) {
					errs <- fmt.Errorf("caller %d rep %d: shared handle gave a different answer", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
