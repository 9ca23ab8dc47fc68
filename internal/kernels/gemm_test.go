package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// refGemm is an independent, index-by-index oracle for
// C = alpha·op(A)·op(B) + beta·C.
func refGemm(transA, transB bool, alpha float64, a, b *tensor.Matrix, beta float64, c *tensor.Matrix) {
	opAt := func(m *tensor.Matrix, trans bool, i, j int) float64 {
		if trans {
			return m.At(j, i)
		}
		return m.At(i, j)
	}
	mr, k := a.Rows, a.Cols
	if transA {
		mr, k = a.Cols, a.Rows
	}
	n := b.Cols
	if transB {
		n = b.Rows
	}
	for i := 0; i < mr; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += opAt(a, transA, i, l) * opAt(b, transB, l, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

func randMatrix(r *rng.RNG, rows, cols int) *tensor.Matrix {
	return tensor.NewMatrix(rows, cols).Randomize(r, -1, 1)
}

func TestGemmAllLevelsMatchReference(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	r := rng.New(1)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {33, 65, 17}, {70, 129, 257}, {64, 256, 64},
	}
	for _, sh := range shapes {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				ar, ac := sh.m, sh.k
				if transA {
					ar, ac = sh.k, sh.m
				}
				br, bc := sh.k, sh.n
				if transB {
					br, bc = sh.n, sh.k
				}
				a := randMatrix(r, ar, ac)
				b := randMatrix(r, br, bc)
				c0 := randMatrix(r, sh.m, sh.n)
				want := c0.Clone()
				refGemm(transA, transB, 1.5, a, b, 0.5, want)
				for _, lvl := range Levels {
					got := c0.Clone()
					Gemm(pool, lvl, transA, transB, 1.5, a, b, 0.5, got)
					if d := tensor.MaxAbsDiff(want, got); d > 1e-10*float64(sh.k) {
						t.Errorf("Gemm %v transA=%v transB=%v shape %dx%dx%d: max diff %g", lvl, transA, transB, sh.m, sh.k, sh.n, d)
					}
				}
			}
		}
	}
}

func TestGemmAlphaBetaSpecialCases(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	r := rng.New(2)
	a := randMatrix(r, 6, 5)
	b := randMatrix(r, 5, 7)
	c0 := randMatrix(r, 6, 7)
	cases := []struct{ alpha, beta float64 }{
		{0, 0}, {0, 1}, {1, 0}, {1, 1}, {-2, 3}, {0.25, -0.5},
	}
	for _, cse := range cases {
		want := c0.Clone()
		refGemm(false, false, cse.alpha, a, b, cse.beta, want)
		for _, lvl := range Levels {
			got := c0.Clone()
			Gemm(pool, lvl, false, false, cse.alpha, a, b, cse.beta, got)
			if d := tensor.MaxAbsDiff(want, got); d > 1e-12 {
				t.Errorf("alpha=%g beta=%g level %v: max diff %g", cse.alpha, cse.beta, lvl, d)
			}
		}
	}
}

func TestGemmZeroDimensions(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	// m=0 and n=0: nothing to do, must not panic.
	a := tensor.NewMatrix(0, 3)
	b := tensor.NewMatrix(3, 4)
	c := tensor.NewMatrix(0, 4)
	Gemm(pool, ParallelBlocked, false, false, 1, a, b, 0, c)
	// k=0: C scaled by beta only.
	a = tensor.NewMatrix(2, 0)
	b = tensor.NewMatrix(0, 4)
	c = tensor.NewMatrix(2, 4)
	c.Fill(3)
	Gemm(pool, Naive, false, false, 1, a, b, 0.5, c)
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			if c.At(i, j) != 1.5 {
				t.Fatalf("k=0 case: got %g want 1.5", c.At(i, j))
			}
		}
	}
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dimension mismatch")
		}
	}()
	a := tensor.NewMatrix(2, 3)
	b := tensor.NewMatrix(4, 5)
	c := tensor.NewMatrix(2, 5)
	Gemm(nil, Naive, false, false, 1, a, b, 0, c)
}

// TestGemmQuickEquivalence property-tests ParallelBlocked against Naive on
// random shapes and contents.
func TestGemmQuickEquivalence(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	f := func(seed uint64, mRaw, kRaw, nRaw uint8, transA, transB bool) bool {
		m := int(mRaw)%24 + 1
		k := int(kRaw)%24 + 1
		n := int(nRaw)%24 + 1
		r := rng.New(seed)
		ar, ac := m, k
		if transA {
			ar, ac = k, m
		}
		br, bc := k, n
		if transB {
			br, bc = n, k
		}
		a := randMatrix(r, ar, ac)
		b := randMatrix(r, br, bc)
		want := tensor.NewMatrix(m, n)
		got := tensor.NewMatrix(m, n)
		Gemm(nil, Naive, transA, transB, 1, a, b, 0, want)
		Gemm(pool, ParallelBlocked, transA, transB, 1, a, b, 0, got)
		return tensor.MaxAbsDiff(want, got) <= 1e-11*float64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmTransposeConsistency(t *testing.T) {
	// (AᵀBᵀ) must equal (BA)ᵀ.
	pool := parallel.NewPool(2)
	defer pool.Close()
	r := rng.New(4)
	a := randMatrix(r, 5, 8) // op(A)=Aᵀ: 8x5
	b := randMatrix(r, 9, 5) // op(B)=Bᵀ: 5x9
	c := tensor.NewMatrix(8, 9)
	Gemm(pool, ParallelBlocked, true, true, 1, a, b, 0, c)
	ba := tensor.NewMatrix(9, 8)
	Gemm(pool, Naive, false, false, 1, b, a, 0, ba)
	if d := tensor.MaxAbsDiff(c, ba.T()); d > 1e-11 {
		t.Fatalf("TT inconsistency: %g", d)
	}
}

func TestGemmNumericalStabilityLargeK(t *testing.T) {
	// Accumulation over a long k must stay within a sane error bound for
	// all levels (they associate differently).
	pool := parallel.NewPool(4)
	defer pool.Close()
	r := rng.New(5)
	a := randMatrix(r, 2, 4096)
	b := randMatrix(r, 4096, 2)
	want := tensor.NewMatrix(2, 2)
	refGemm(false, false, 1, a, b, 0, want)
	for _, lvl := range Levels {
		got := tensor.NewMatrix(2, 2)
		Gemm(pool, lvl, false, false, 1, a, b, 0, got)
		if d := tensor.MaxAbsDiff(want, got); d > 1e-9 {
			t.Errorf("level %v large-k diff %g", lvl, d)
		}
		if math.IsNaN(got.At(0, 0)) {
			t.Errorf("level %v produced NaN", lvl)
		}
	}
}
