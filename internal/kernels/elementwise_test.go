package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// forAllLevels runs body once per level with a shared pool.
func forAllLevels(t *testing.T, body func(t *testing.T, pool *parallel.Pool, lvl Level)) {
	t.Helper()
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, lvl := range Levels {
		t.Run(lvl.String(), func(t *testing.T) { body(t, pool, lvl) })
	}
}

func TestSigmoidValues(t *testing.T) {
	forAllLevels(t, func(t *testing.T, pool *parallel.Pool, lvl Level) {
		src := tensor.FromRows([][]float64{{0, 1, -1}, {30, -30, 0.5}})
		dst := tensor.NewMatrix(2, 3)
		Sigmoid(pool, lvl, dst, src)
		want := [][]float64{
			{0.5, 1 / (1 + math.Exp(-1)), 1 / (1 + math.Exp(1))},
			{1 / (1 + math.Exp(-30)), 1 / (1 + math.Exp(30)), 1 / (1 + math.Exp(-0.5))},
		}
		for i := range want {
			for j := range want[i] {
				if math.Abs(dst.At(i, j)-want[i][j]) > 1e-15 {
					t.Errorf("sigmoid(%g) = %g, want %g", src.At(i, j), dst.At(i, j), want[i][j])
				}
			}
		}
	})
}

func TestSigmoidInPlace(t *testing.T) {
	r := rng.New(7)
	m := tensor.NewMatrix(13, 9).Randomize(r, -4, 4)
	want := m.Clone().Apply(sigmoid)
	Sigmoid(nil, Naive, m, m)
	if d := tensor.MaxAbsDiff(want, m); d > 0 {
		t.Fatalf("in-place sigmoid diff %g", d)
	}
}

func TestSigmoidPrimeFromY(t *testing.T) {
	forAllLevels(t, func(t *testing.T, pool *parallel.Pool, lvl Level) {
		r := rng.New(8)
		y := tensor.NewMatrix(5, 6).Randomize(r, 0, 1)
		d := tensor.NewMatrix(5, 6)
		SigmoidPrimeFromY(pool, lvl, d, y)
		for i := 0; i < 5; i++ {
			for j := 0; j < 6; j++ {
				want := y.At(i, j) * (1 - y.At(i, j))
				if math.Abs(d.At(i, j)-want) > 1e-15 {
					t.Fatalf("(%d,%d): got %g want %g", i, j, d.At(i, j), want)
				}
			}
		}
	})
}

func TestAddBiasRow(t *testing.T) {
	forAllLevels(t, func(t *testing.T, pool *parallel.Pool, lvl Level) {
		m := tensor.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
		AddBiasRow(pool, lvl, m, tensor.Vector{10, 20})
		want := tensor.FromRows([][]float64{{11, 22}, {13, 24}, {15, 26}})
		if !tensor.Equal(want, m, 0) {
			t.Fatalf("got %v", m)
		}
	})
}

func TestAxpyScaleSubMul(t *testing.T) {
	forAllLevels(t, func(t *testing.T, pool *parallel.Pool, lvl Level) {
		r := rng.New(uint64(9))
		x := tensor.NewMatrix(7, 11).Randomize(r, -1, 1)
		y := tensor.NewMatrix(7, 11).Randomize(r, -1, 1)
		yc := y.Clone()
		Axpy(pool, lvl, 2.5, x, y)
		for i := 0; i < 7; i++ {
			for j := 0; j < 11; j++ {
				want := yc.At(i, j) + 2.5*x.At(i, j)
				if math.Abs(y.At(i, j)-want) > 1e-15 {
					t.Fatalf("Axpy (%d,%d): got %g want %g", i, j, y.At(i, j), want)
				}
			}
		}
		Scale(pool, lvl, -0.5, y)
		diff := tensor.NewMatrix(7, 11)
		Sub(pool, lvl, diff, y, x)
		prod := tensor.NewMatrix(7, 11)
		MulElem(pool, lvl, prod, diff, x)
		for i := 0; i < 7; i++ {
			for j := 0; j < 11; j++ {
				yv := -0.5 * (yc.At(i, j) + 2.5*x.At(i, j))
				wantD := yv - x.At(i, j)
				if math.Abs(diff.At(i, j)-wantD) > 1e-14 {
					t.Fatalf("Sub (%d,%d)", i, j)
				}
				if math.Abs(prod.At(i, j)-wantD*x.At(i, j)) > 1e-14 {
					t.Fatalf("MulElem (%d,%d)", i, j)
				}
			}
		}
	})
}

func TestColSumsDeterministicAcrossLevels(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	r := rng.New(10)
	m := tensor.NewMatrix(101, 17).Randomize(r, -1, 1)
	want := tensor.NewVector(17)
	ColSums(nil, Naive, m, want)
	// Oracle.
	oracle := m.ColMeans()
	for j := range oracle {
		oracle[j] *= float64(m.Rows)
	}
	if !tensor.EqualVec(want, oracle, 1e-12) {
		t.Fatal("naive ColSums disagrees with ColMeans oracle")
	}
	for _, lvl := range Levels {
		got := tensor.NewVector(17)
		ColSums(pool, lvl, m, got)
		if !tensor.EqualVec(want, got, 1e-12) {
			t.Errorf("ColSums level %v disagrees", lvl)
		}
	}
}

func TestSumSquaredDiff(t *testing.T) {
	forAllLevels(t, func(t *testing.T, pool *parallel.Pool, lvl Level) {
		a := tensor.FromRows([][]float64{{1, 2}, {3, 4}})
		b := tensor.FromRows([][]float64{{0, 2}, {5, 1}})
		got := SumSquaredDiff(pool, lvl, a, b)
		want := 1.0 + 0 + 4 + 9
		if math.Abs(got-want) > 1e-14 {
			t.Fatalf("got %g want %g", got, want)
		}
	})
}

func TestSampleBernoulliDeterministicAcrossSchedules(t *testing.T) {
	// Same RNG seed must give identical samples regardless of level and
	// worker count — the property making numeric results reproducible.
	p := tensor.NewMatrix(40, 10).Randomize(rng.New(11), 0, 1)
	want := tensor.NewMatrix(40, 10)
	SampleBernoulli(nil, Naive, want, p, rng.New(42))
	for _, workers := range []int{1, 2, 5} {
		pool := parallel.NewPool(workers)
		for _, lvl := range Levels {
			got := tensor.NewMatrix(40, 10)
			SampleBernoulli(pool, lvl, got, p, rng.New(42))
			if !tensor.Equal(want, got, 0) {
				t.Errorf("sampling not deterministic: level %v workers %d", lvl, workers)
			}
		}
		pool.Close()
	}
}

func TestSampleBernoulliStatistics(t *testing.T) {
	// Empirical frequency must approach p, and extremes must be exact.
	p := tensor.NewMatrix(2000, 3)
	for i := 0; i < p.Rows; i++ {
		p.Set(i, 0, 0)
		p.Set(i, 1, 0.3)
		p.Set(i, 2, 1)
	}
	s := tensor.NewMatrix(2000, 3)
	SampleBernoulli(nil, Naive, s, p, rng.New(13))
	sums := tensor.NewVector(3)
	ColSums(nil, Naive, s, sums)
	if sums[0] != 0 {
		t.Fatalf("p=0 produced %g ones", sums[0])
	}
	if sums[2] != 2000 {
		t.Fatalf("p=1 produced %g ones", sums[2])
	}
	if freq := sums[1] / 2000; math.Abs(freq-0.3) > 0.05 {
		t.Fatalf("p=0.3 empirical frequency %g", freq)
	}
	// Values are exactly 0 or 1.
	for i := 0; i < s.Rows; i++ {
		for _, v := range s.RowView(i) {
			if v != 0 && v != 1 {
				t.Fatalf("non-binary sample %g", v)
			}
		}
	}
}

func TestSampleBernoulliAdvancesStream(t *testing.T) {
	// Two consecutive calls with the same generator must differ (the
	// generator advances once per launch).
	p := tensor.NewMatrix(30, 30)
	p.Fill(0.5)
	r := rng.New(77)
	a := tensor.NewMatrix(30, 30)
	b := tensor.NewMatrix(30, 30)
	SampleBernoulli(nil, Naive, a, p, r)
	SampleBernoulli(nil, Naive, b, p, r)
	if tensor.Equal(a, b, 0) {
		t.Fatal("consecutive sampling launches produced identical draws")
	}
}

func TestAddKLSparsityDelta(t *testing.T) {
	forAllLevels(t, func(t *testing.T, pool *parallel.Pool, lvl Level) {
		delta := tensor.FromRows([][]float64{{1, 2}, {3, 4}})
		dY := tensor.FromRows([][]float64{{0.5, 0.25}, {1, 2}})
		coeff := tensor.Vector{10, 100}
		AddKLSparsityDelta(pool, lvl, delta, coeff, dY)
		want := tensor.FromRows([][]float64{{(1 + 10) * 0.5, (2 + 100) * 0.25}, {(3 + 10) * 1, (4 + 100) * 2}})
		if !tensor.Equal(want, delta, 1e-15) {
			t.Fatalf("got %v want %v", delta, want)
		}
	})
}

func TestAddKLSparsityDeltaNilDY(t *testing.T) {
	delta := tensor.FromRows([][]float64{{1, 2}})
	AddKLSparsityDelta(nil, Naive, delta, tensor.Vector{5, 6}, nil)
	want := tensor.FromRows([][]float64{{6, 8}})
	if !tensor.Equal(want, delta, 0) {
		t.Fatalf("got %v", delta)
	}
}

func TestElementwiseQuickParallelMatchesSerial(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	f := func(seed uint64, rowsRaw, colsRaw uint8) bool {
		rows := int(rowsRaw)%40 + 1
		cols := int(colsRaw)%40 + 1
		r := rng.New(seed)
		src := tensor.NewMatrix(rows, cols).Randomize(r, -3, 3)
		a := tensor.NewMatrix(rows, cols)
		b := tensor.NewMatrix(rows, cols)
		Sigmoid(nil, Naive, a, src)
		Sigmoid(pool, ParallelBlocked, b, src)
		if tensor.MaxAbsDiff(a, b) != 0 {
			return false
		}
		sa := tensor.NewVector(cols)
		sb := tensor.NewVector(cols)
		ColSums(nil, Naive, src, sa)
		ColSums(pool, Parallel, src, sb)
		return tensor.EqualVec(sa, sb, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Sigmoid", func() { Sigmoid(nil, Naive, tensor.NewMatrix(2, 2), tensor.NewMatrix(2, 3)) }},
		{"Axpy", func() { Axpy(nil, Naive, 1, tensor.NewMatrix(2, 2), tensor.NewMatrix(3, 2)) }},
		{"Sub", func() { Sub(nil, Naive, tensor.NewMatrix(2, 2), tensor.NewMatrix(2, 2), tensor.NewMatrix(2, 3)) }},
		{"AddBiasRow", func() { AddBiasRow(nil, Naive, tensor.NewMatrix(2, 2), tensor.NewVector(3)) }},
		{"ColSums", func() { ColSums(nil, Naive, tensor.NewMatrix(2, 2), tensor.NewVector(3)) }},
		{"AxpyVec", func() { AxpyVec(1, tensor.NewVector(2), tensor.NewVector(3)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		})
	}
}

func TestAxpyVec(t *testing.T) {
	x := tensor.Vector{1, 2, 3}
	y := tensor.Vector{10, 20, 30}
	AxpyVec(2, x, y)
	if !tensor.EqualVec(y, tensor.Vector{12, 24, 36}, 0) {
		t.Fatalf("got %v", y)
	}
}

func TestLevelStringerAndPredicates(t *testing.T) {
	if Naive.IsParallel() || Blocked.IsParallel() || !Parallel.IsParallel() || !ParallelBlocked.IsParallel() {
		t.Fatal("IsParallel wrong")
	}
	if Naive.IsBlocked() || !Blocked.IsBlocked() || Parallel.IsBlocked() || !ParallelBlocked.IsBlocked() {
		t.Fatal("IsBlocked wrong")
	}
	for _, lvl := range Levels {
		if lvl.String() == "" {
			t.Fatal("empty level name")
		}
	}
	if Level(99).String() != "Level(99)" {
		t.Fatal("unknown level formatting")
	}
}
