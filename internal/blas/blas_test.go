package blas

import (
	"math"
	"testing"

	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func numericCtx(lvl kernels.Level) *Context {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	return NewContext(dev, lvl, 1)
}

func upload(ctx *Context, m *tensor.Matrix) *device.Buffer {
	b := ctx.Dev.MustAlloc(m.Rows, m.Cols)
	ctx.Dev.CopyIn(b, m, 0)
	return b
}

func TestGemmNumericMatchesKernels(t *testing.T) {
	for _, lvl := range kernels.Levels {
		ctx := numericCtx(lvl)
		a := tensor.NewMatrix(4, 5).Randomize(ctx.RNG, -1, 1)
		b := tensor.NewMatrix(5, 3).Randomize(ctx.RNG, -1, 1)
		da, db := upload(ctx, a), upload(ctx, b)
		dc := ctx.Dev.MustAlloc(4, 3)
		ctx.Gemm(false, false, 2, da, db, 0, dc)
		want := tensor.NewMatrix(4, 3)
		kernels.Gemm(nil, kernels.Naive, false, false, 2, a, b, 0, want)
		if d := tensor.MaxAbsDiff(want, dc.Mat); d > 1e-12 {
			t.Errorf("level %v: diff %g", lvl, d)
		}
	}
}

// TestGemmPackedIsGemm: GemmPacked through a Packs handle gives Gemm's
// bits and charges the same launch (simulated time and stats) at every
// level, for NN and NT operands; a nil handle is plain Gemm.
func TestGemmPackedIsGemm(t *testing.T) {
	for _, lvl := range kernels.Levels {
		for _, transB := range []bool{false, true} {
			plain, packed := numericCtx(lvl), numericCtx(lvl)
			a := tensor.NewMatrix(6, 300).Randomize(plain.RNG, -1, 1)
			b := tensor.NewMatrix(300, 9).Randomize(plain.RNG, -1, 1)
			if transB {
				b = b.T()
			}
			run := func(ctx *Context, pb func(*device.Buffer) *kernels.PackedB[float64]) *tensor.Matrix {
				da, db := upload(ctx, a), upload(ctx, b)
				dc := ctx.Dev.MustAlloc(6, 9)
				ctx.GemmPacked(false, transB, 1.5, da, db, pb(db), 0, dc)
				ctx.GemmPacked(false, transB, -1, da, db, pb(db), 1, dc)
				return dc.Mat
			}
			var packs Packs
			want := run(plain, func(*device.Buffer) *kernels.PackedB[float64] { return nil })
			got := run(packed, func(db *device.Buffer) *kernels.PackedB[float64] { return packs.B(db, transB) })
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("level %v transB=%v: element %d = %v, want %v", lvl, transB, i, got.Data[i], want.Data[i])
				}
			}
			if plain.Dev.Now() != packed.Dev.Now() || plain.Dev.Stats() != packed.Dev.Stats() {
				t.Fatalf("level %v transB=%v: launch differs: %+v vs %+v", lvl, transB, packed.Dev.Stats(), plain.Dev.Stats())
			}
			if len(packs.held) != 1 {
				t.Fatalf("level %v transB=%v: %d handles after two GEMMs on one operand, want 1", lvl, transB, len(packs.held))
			}
		}
	}
}

// TestPacksLazyAndReset: a handle is made on the first request for an
// (operand, transpose) pair and reused after; Reset drops them all; a nil
// Packs and a model-only device never pack.
func TestPacksLazyAndReset(t *testing.T) {
	ctx := numericCtx(kernels.Blocked)
	w := upload(ctx, tensor.NewMatrix(5, 3).Randomize(ctx.RNG, -1, 1))
	var p Packs
	if len(p.held) != 0 {
		t.Fatal("a new Packs holds handles")
	}
	nn := p.B(w, false)
	if nn == nil || p.B(w, false) != nn || len(p.held) != 1 {
		t.Fatalf("first operand: %d handles, reuse %v", len(p.held), p.B(w, false) == nn)
	}
	if nt := p.B(w, true); nt == nil || nt == nn || len(p.held) != 2 {
		t.Fatalf("transposed operand: %d handles", len(p.held))
	}
	p.Reset()
	if len(p.held) != 0 || p.B(w, false) == nn {
		t.Fatal("Reset kept a handle")
	}

	var none *Packs
	none.Reset()
	if none.B(w, false) != nil {
		t.Fatal("a nil Packs packed")
	}
	model := device.New(sim.XeonPhi5110P(), false, nil)
	if p.B(model.MustAlloc(5, 3), false) != nil {
		t.Fatal("packed a model-only buffer")
	}
}

func TestGemmShapePanics(t *testing.T) {
	ctx := numericCtx(kernels.Naive)
	a := ctx.Dev.MustAlloc(2, 3)
	b := ctx.Dev.MustAlloc(4, 5)
	c := ctx.Dev.MustAlloc(2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ctx.Gemm(false, false, 1, a, b, 0, c)
}

func TestElementwiseOpsNumeric(t *testing.T) {
	ctx := numericCtx(kernels.ParallelBlocked)
	x := tensor.FromRows([][]float64{{0, 2}, {-2, 1}})
	dx := upload(ctx, x)
	dy := ctx.Dev.MustAlloc(2, 2)

	ctx.Sigmoid(dy, dx)
	if math.Abs(dy.Mat.At(0, 0)-0.5) > 1e-15 {
		t.Fatal("Sigmoid")
	}
	ctx.SigmoidPrimeFromY(dy, dy)
	if math.Abs(dy.Mat.At(0, 0)-0.25) > 1e-15 {
		t.Fatal("SigmoidPrime")
	}
	bias := upload(ctx, tensor.FromRows([][]float64{{10, 20}}))
	ctx.AddBiasRow(dx, bias)
	if dx.Mat.At(1, 1) != 21 {
		t.Fatal("AddBiasRow")
	}
	ctx.Axpy(2, dx, dx)
	if dx.Mat.At(0, 0) != 30 {
		t.Fatalf("Axpy got %g", dx.Mat.At(0, 0))
	}
	ctx.Scale(0.1, dx)
	if math.Abs(dx.Mat.At(0, 0)-3) > 1e-12 {
		t.Fatal("Scale")
	}
	dz := ctx.Dev.MustAlloc(2, 2)
	ctx.Sub(dz, dx, dx)
	if dz.Mat.Sum() != 0 {
		t.Fatal("Sub")
	}
	ctx.MulElem(dz, dx, dx)
	if math.Abs(dz.Mat.At(0, 0)-9) > 1e-10 {
		t.Fatal("MulElem")
	}
}

func TestReductionsNumeric(t *testing.T) {
	ctx := numericCtx(kernels.Parallel)
	m := tensor.FromRows([][]float64{{1, 2}, {3, 4}})
	dm := upload(ctx, m)
	out := ctx.Dev.MustAlloc(1, 2)
	ctx.ColSums(dm, out)
	if out.Mat.At(0, 0) != 4 || out.Mat.At(0, 1) != 6 {
		t.Fatal("ColSums")
	}
	other := upload(ctx, tensor.FromRows([][]float64{{1, 2}, {3, 0}}))
	if got := ctx.SumSquaredDiff(dm, other); got != 16 {
		t.Fatalf("SumSquaredDiff %g", got)
	}
	if got := ctx.SumSquares(dm); got != 30 {
		t.Fatalf("SumSquares %g", got)
	}
	means := ctx.MeanActivations(dm, out)
	if !tensor.EqualVec(means, tensor.Vector{2, 3}, 0) {
		t.Fatalf("MeanActivations %v", means)
	}
}

func TestReductionsModelOnlyReturnZero(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	ctx := NewContext(dev, kernels.ParallelBlocked, 1)
	a := dev.MustAlloc(3, 3)
	b := dev.MustAlloc(3, 3)
	if ctx.SumSquaredDiff(a, b) != 0 || ctx.SumSquares(a) != 0 {
		t.Fatal("model-only reductions must be 0")
	}
	scratch := dev.MustAlloc(1, 3)
	if ctx.MeanActivations(a, scratch).Sum() != 0 {
		t.Fatal("model-only means must be 0")
	}
}

func TestFusedChargesSyncOnce(t *testing.T) {
	run := func(fuse bool) float64 {
		dev := device.New(sim.XeonPhi5110P(), false, nil)
		ctx := NewContext(dev, kernels.ParallelBlocked, 1)
		a := dev.MustAlloc(10, 10)
		body := func() {
			ctx.Scale(1, a)
			ctx.Scale(1, a)
			ctx.Scale(1, a)
		}
		if fuse {
			ctx.Fused(body)
		} else {
			body()
		}
		return dev.Now()
	}
	unfused, fused := run(false), run(true)
	saving := unfused - fused
	want := 2 * sim.XeonPhi5110P().SyncCost(240)
	if math.Abs(saving-want) > 1e-9 {
		t.Fatalf("fusion saving %g, want %g", saving, want)
	}
}

func TestFusedNestingPanics(t *testing.T) {
	ctx := numericCtx(kernels.Naive)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ctx.Fused(func() { ctx.Fused(func() {}) })
}

func TestConcurrentProducesSameNumbers(t *testing.T) {
	// The Fig. 6 schedule must not change results, only timing.
	mk := func(concurrent bool) *tensor.Matrix {
		ctx := numericCtx(kernels.ParallelBlocked)
		x := tensor.NewMatrix(6, 6).Randomize(ctx.RNG, -1, 1)
		dx := upload(ctx, x)
		da := ctx.Dev.MustAlloc(6, 6)
		db := ctx.Dev.MustAlloc(6, 6)
		body := func() {
			ctx.Gemm(false, false, 1, dx, dx, 0, da)
			ctx.Gemm(false, true, 1, dx, dx, 0, db)
		}
		if concurrent {
			ctx.Concurrent(body)
		} else {
			body()
		}
		sum := tensor.NewMatrix(6, 6)
		kernels.Sub(nil, kernels.Naive, sum, da.Mat, db.Mat)
		return sum
	}
	a, b := mk(false), mk(true)
	if d := tensor.MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("concurrent schedule changed results by %g", d)
	}
}

func TestConcurrentGuards(t *testing.T) {
	ctx := numericCtx(kernels.Naive)
	for _, f := range []func(){
		func() { ctx.Concurrent(func() { ctx.Concurrent(func() {}) }) },
		func() { ctx.Fused(func() { ctx.Concurrent(func() {}) }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSampleBernoulliStreamAlignment(t *testing.T) {
	// Numeric and model-only devices must advance the RNG identically, so
	// a model-only timing run of a stochastic model replays the same
	// simulated op sequence as a numeric one.
	num := numericCtx(kernels.Naive)
	mod := NewContext(device.New(sim.XeonPhi5110P(), false, nil), kernels.Naive, 1)
	p := tensor.NewMatrix(3, 3)
	p.Fill(0.5)
	dpn := upload(num, p)
	dn := num.Dev.MustAlloc(3, 3)
	dpm := mod.Dev.MustAlloc(3, 3)
	dm := mod.Dev.MustAlloc(3, 3)
	for i := 0; i < 3; i++ {
		num.SampleBernoulli(dn, dpn)
		mod.SampleBernoulli(dm, dpm)
	}
	if num.RNG.Uint64() != mod.RNG.Uint64() {
		t.Fatal("RNG streams diverged between numeric and model-only runs")
	}
}

func TestAddKLSparsityDeltaAndKLDivergence(t *testing.T) {
	ctx := numericCtx(kernels.Naive)
	delta := upload(ctx, tensor.FromRows([][]float64{{1, 1}}))
	dY := upload(ctx, tensor.FromRows([][]float64{{2, 3}}))
	ctx.AddKLSparsityDelta(delta, tensor.Vector{1, 2}, dY)
	if delta.Mat.At(0, 0) != 4 || delta.Mat.At(0, 1) != 9 {
		t.Fatalf("AddKLSparsityDelta %v", delta.Mat)
	}
	// KL(ρ‖ρ) = 0; KL grows away from ρ; extreme ρ̂ stays finite.
	if kl := KLDivergence(0.05, tensor.Vector{0.05, 0.05}); kl > 1e-12 {
		t.Fatalf("KL at target %g", kl)
	}
	if KLDivergence(0.05, tensor.Vector{0.5}) <= 0 {
		t.Fatal("KL away from target must be positive")
	}
	if v := KLDivergence(0.05, tensor.Vector{0, 1}); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatal("KL not clamped")
	}
}

func TestNewContextVectorDefaults(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	if NewContext(dev, kernels.ParallelBlocked, 1).Vector != true {
		t.Fatal("MKL level should vectorize")
	}
	for _, lvl := range []kernels.Level{kernels.Naive, kernels.Blocked, kernels.Parallel} {
		if NewContext(dev, lvl, 1).Vector {
			t.Fatalf("level %v should not vectorize", lvl)
		}
	}
}

func TestMaybeHelpersRespectFlags(t *testing.T) {
	run := func(autoFuse bool) float64 {
		dev := device.New(sim.XeonPhi5110P(), false, nil)
		ctx := NewContext(dev, kernels.ParallelBlocked, 1)
		ctx.AutoFuse = autoFuse
		ctx.AutoConcurrent = autoFuse
		a := dev.MustAlloc(4, 4)
		b := dev.MustAlloc(4, 4)
		ctx.MaybeFused(func() {
			ctx.Scale(1, a)
			ctx.Scale(1, a)
		})
		ctx.MaybeConcurrent(func() {
			ctx.Scale(1, a)
			ctx.Scale(1, b)
		})
		return dev.Now()
	}
	if !(run(true) < run(false)) {
		t.Fatal("AutoFuse/AutoConcurrent made no timing difference")
	}
}

func TestSoftmaxWrappers(t *testing.T) {
	ctx := numericCtx(kernels.ParallelBlocked)
	src := upload(ctx, tensor.FromRows([][]float64{{2, 1, 0}, {0, 0, 5}}))
	dst := ctx.Dev.MustAlloc(2, 3)
	ctx.SoftmaxRows(dst, src)
	for i := 0; i < 2; i++ {
		sum := 0.0
		for _, v := range dst.Mat.RowView(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
	y := upload(ctx, tensor.FromRows([][]float64{{1, 0, 0}, {0, 0, 1}}))
	ce := ctx.CrossEntropyOneHot(dst, y)
	if ce <= 0 {
		t.Fatalf("cross entropy %g", ce)
	}
	if got := ctx.CountArgmaxMatches(dst, y); got != 2 {
		t.Fatalf("matches %d", got)
	}
}

func TestAddGaussianNoiseWrapperStreamAlignment(t *testing.T) {
	num := numericCtx(kernels.Naive)
	mod := NewContext(device.New(sim.XeonPhi5110P(), false, nil), kernels.Naive, 1)
	mean := upload(num, tensor.NewMatrix(3, 3))
	dn := num.Dev.MustAlloc(3, 3)
	mm := mod.Dev.MustAlloc(3, 3)
	md := mod.Dev.MustAlloc(3, 3)
	num.AddGaussianNoise(dn, mean, 1)
	mod.AddGaussianNoise(md, mm, 1)
	if num.RNG.Uint64() != mod.RNG.Uint64() {
		t.Fatal("RNG streams diverged between modes")
	}
	if dn.Mat.SumSquares() == 0 {
		t.Fatal("no noise added")
	}
}
