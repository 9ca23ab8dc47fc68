package kernels

import (
	"fmt"
	"sync"
	"testing"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Pack-once suite, run at both precisions: a PackedB handle must give
// exactly the per-call GEMM's bytes, and one handle must serve concurrent
// callers.

// cloneStrided copies m with its stride and padding lanes intact.
func cloneStrided[T tensor.Float](m *tensor.Dense[T]) *tensor.Dense[T] {
	return &tensor.Dense[T]{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Data: append([]T(nil), m.Data...)}
}

// TestGemmPackedBitwise: a pack-once operand gives exactly Gemm's bytes —
// padding lanes of C included — over the equivalence suite's shape grid
// (ragged, strided, trans combos and alpha/beta cycling per case) plus
// shapes that cross the ncBlock panel edge, at every level and for pools
// of 1, 2 and 5 workers.
func TestGemmPackedBitwise(t *testing.T) { testPackedBitwise[float64](t) }

// TestGemm32PackedBitwise is TestGemmPackedBitwise at float32.
func TestGemm32PackedBitwise(t *testing.T) { testPackedBitwise[float32](t) }

func testPackedBitwise[T tensor.Float](t *testing.T) {
	dims := []int{1, 3, 17, 64, 65, 257}
	shapes := [][3]int{{9, 300, 530}, {33, 513, 1025}, {5, 256, 512}}
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	coeffs := []T{0, 1, -0.5}
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
			a := randStrided[T](r, ar, ac, pad)
			b := randStrided[T](r, br, bc, (pad+1)%4)
			c0 := randStrided[T](r, m, n, pad)
			pb := PackB(b, transB)
			for _, lvl := range Levels {
				want, got := cloneStrided(c0), cloneStrided(c0)
				gemm(pool, lvl, transA, transB, alpha, a, b, nil, beta, want)
				GemmPacked(pool, lvl, transA, alpha, a, pb, beta, got)
				if !bitsEqual(got.Data, want.Data) {
					t.Fatalf("workers=%d %s transA=%v transB=%v %dx%dx%d alpha=%v beta=%v: prepacked result differs from the per-call GEMM",
						workers, lvl, transA, transB, m, k, n, alpha, beta)
				}
			}
			checkPadding(t, "input B", b)
		}
		pool.Close()
	}
}

// TestPackedBSharedAcrossGoroutines: one handle serves concurrent GEMMs
// (each with its own pool, A and C, as serving replicas have) and every one
// gets the sequential answer. Run under -race this is the read-only
// sharing claim.
func TestPackedBSharedAcrossGoroutines(t *testing.T) { testPackedBShared[float64](t, 47) }

// TestPackedB32SharedAcrossGoroutines is TestPackedBSharedAcrossGoroutines
// for a PackedB32 handle.
func TestPackedB32SharedAcrossGoroutines(t *testing.T) { testPackedBShared[float32](t, 43) }

func testPackedBShared[T tensor.Float](t *testing.T, seed uint64) {
	r := rng.New(seed)
	b := randStrided[T](r, 300, 530, 1) // k crosses kcBlock, n crosses ncBlock
	pb := PackB(b, false)
	const callers = 6
	as := make([]*tensor.Dense[T], callers)
	want := make([]*tensor.Dense[T], callers)
	for g := range as {
		as[g] = randStrided[T](r, 8+g, 300, 0)
		want[g] = tensor.New[T](8+g, 530)
		gemm(nil, Blocked, false, false, 1, as[g], b, nil, 0, want[g])
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
				c := tensor.New[T](8+g, 530)
				GemmPacked(pool, ParallelBlocked, false, 1, as[g], pb, 0, c)
				if !bitsEqual(c.Data, want[g].Data) {
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
