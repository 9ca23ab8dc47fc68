package autoencoder

import (
	"math"
	"testing"

	"phideep/internal/blas"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func testConfig() Config {
	return Config{Visible: 8, Hidden: 5, Lambda: 1e-3, Beta: 0.3, Rho: 0.2}
}

func randBatch(r *rng.RNG, n, dim int) *tensor.Matrix {
	return tensor.NewMatrix(n, dim).Randomize(r, 0.1, 0.9)
}

// TestReferenceGradientMatchesFiniteDifferences is the ground-truth check:
// the analytic CostGrad must match central finite differences of the cost
// for every parameter, with all penalty terms active.
func TestReferenceGradientMatchesFiniteDifferences(t *testing.T) {
	for _, cfg := range []Config{
		testConfig(),
		{Visible: 6, Hidden: 4},                                    // no penalties
		{Visible: 6, Hidden: 4, Lambda: 0.01},                      // L2 only
		{Visible: 6, Hidden: 4, Beta: 0.5, Rho: 0.1},               // sparsity only
		{Visible: 4, Hidden: 9, Beta: 0.2, Rho: 0.3, Lambda: 1e-4}, // overcomplete
	} {
		p := NewParams(cfg, 42)
		x := randBatch(rng.New(7), 5, cfg.Visible)
		grad := ZeroGrad(cfg)
		CostGrad(cfg, p, x, grad)

		ps := p.ParamSet()
		theta := ps.Flatten(nil)
		gs := grad.ParamSet()
		analytic := gs.Flatten(nil)

		const h = 1e-6
		maxRel := 0.0
		for i := 0; i < len(theta); i += 7 { // sample every 7th parameter
			orig := theta[i]
			theta[i] = orig + h
			ps.Unflatten(theta)
			cPlus := CostGrad(cfg, p, x, nil)
			theta[i] = orig - h
			ps.Unflatten(theta)
			cMinus := CostGrad(cfg, p, x, nil)
			theta[i] = orig
			ps.Unflatten(theta)
			numeric := (cPlus - cMinus) / (2 * h)
			denom := math.Max(1e-8, math.Abs(numeric)+math.Abs(analytic[i]))
			rel := math.Abs(numeric-analytic[i]) / denom
			if rel > maxRel {
				maxRel = rel
			}
		}
		if maxRel > 1e-5 {
			t.Errorf("cfg %+v: max relative gradient error %g", cfg, maxRel)
		}
	}
}

// TestDeviceMatchesReference checks the device implementation against the
// reference at every optimization level: same cost, same gradient.
func TestDeviceMatchesReference(t *testing.T) {
	cfg := testConfig()
	batch := 6
	cfg.Batch, cfg.Seed = batch, 5
	x := randBatch(rng.New(9), batch, cfg.Visible)
	p := NewParams(cfg, 5)
	refGrad := ZeroGrad(cfg)
	refCost := CostGrad(cfg, p, x, refGrad)

	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, lvl := range kernels.Levels {
		for _, fuse := range []bool{false, true} {
			dev := device.New(sim.XeonPhi5110P(), true, pool)
			ctx := blas.NewContext(dev, lvl, 1)
			ctx.AutoFuse = fuse
			ctx.AutoConcurrent = fuse
			m, err := Build(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Upload(p)
			dx := dev.MustAlloc(batch, cfg.Visible)
			dev.CopyIn(dx, x, 0)

			cost := m.Cost(dx)
			if math.Abs(cost-refCost) > 1e-10 {
				t.Errorf("level %v fuse=%v: cost %g vs reference %g", lvl, fuse, cost, refCost)
			}
			m.Forward(dx)
			m.Backward(dx)
			gw1, gb1, gw2, gb2 := m.Gradients()
			checks := []struct {
				name string
				dev  *device.Buffer
				ref  *tensor.Matrix
			}{
				{"GW1", gw1, refGrad.W1},
				{"GB1", gb1, refGrad.B1.AsRow()},
				{"GW2", gw2, refGrad.W2},
				{"GB2", gb2, refGrad.B2.AsRow()},
			}
			for _, c := range checks {
				if d := tensor.MaxAbsDiff(c.dev.Mat, c.ref); d > 1e-10 {
					t.Errorf("level %v fuse=%v: %s max diff %g", lvl, fuse, c.name, d)
				}
			}
		}
	}
}

// lowRankBatch builds compressible data: sigmoid of a rank-2 factorization,
// which an 8-hidden-unit autoencoder can genuinely learn to reconstruct.
func lowRankBatch(r *rng.RNG, n, dim int) *tensor.Matrix {
	u := tensor.NewMatrix(n, 2).Randomize(r, -2, 2)
	v := tensor.NewMatrix(2, dim).Randomize(r, -2, 2)
	x := tensor.NewMatrix(n, dim)
	kernels.Gemm(nil, kernels.Naive, false, false, 1, u, v, 0, x)
	return x.Apply(func(z float64) float64 { return 1 / (1 + math.Exp(-z)) })
}

func TestStepReducesReconstruction(t *testing.T) {
	cfg := Config{Visible: 16, Hidden: 8, Lambda: 1e-5, Batch: 20, Seed: 11}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 2)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := lowRankBatch(rng.New(12), 20, cfg.Visible)
	dx := dev.MustAlloc(20, cfg.Visible)
	dev.CopyIn(dx, x, 0)
	first := m.Step(dx, 1.0)
	var last float64
	for i := 0; i < 500; i++ {
		last = m.Step(dx, 1.0)
	}
	if !(last < 0.5*first) {
		t.Fatalf("reconstruction error did not fall: first %g last %g", first, last)
	}
}

func TestSparsityPenaltyDrivesActivationsTowardRho(t *testing.T) {
	cfg := Config{Visible: 12, Hidden: 6, Beta: 3, Rho: 0.05, Batch: 16, Seed: 13}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 3)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch(rng.New(14), 16, cfg.Visible)
	dx := dev.MustAlloc(16, cfg.Visible)
	dev.CopyIn(dx, x, 0)
	m.Forward(dx)
	before := m.Hidden().Mat.Mean()
	for i := 0; i < 300; i++ {
		m.Step(dx, 0.3)
	}
	m.Forward(dx)
	after := m.Hidden().Mat.Mean()
	if !(math.Abs(after-cfg.Rho) < math.Abs(before-cfg.Rho)) {
		t.Fatalf("mean activation did not approach rho: before %g after %g (rho %g)", before, after, cfg.Rho)
	}
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	cfg := testConfig()
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 4)
	cfg.Batch, cfg.Seed = 3, 17
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := NewParams(cfg, 99)
	m.Upload(p)
	q := m.Download()
	if tensor.MaxAbsDiff(p.W1, q.W1) != 0 || tensor.MaxAbsDiff(p.W2, q.W2) != 0 ||
		!tensor.EqualVec(p.B1, q.B1, 0) || !tensor.EqualVec(p.B2, q.B2, 0) {
		t.Fatal("upload/download roundtrip mismatch")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Visible: 0, Hidden: 3},
		{Visible: 3, Hidden: -1},
		{Visible: 3, Hidden: 3, Lambda: -1},
		{Visible: 3, Hidden: 3, Beta: 1, Rho: 0},
		{Visible: 3, Hidden: 3, Beta: 1, Rho: 1},
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	if _, err := Build(ctx, Config{Visible: 2, Hidden: 2, Batch: 0, Seed: 1}); err == nil {
		t.Error("zero batch should fail")
	}
	if _, err := Build(ctx, Config{Visible: -2, Hidden: 2, Batch: 4, Seed: 1}); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestOutOfMemoryIsReported(t *testing.T) {
	arch := sim.XeonPhi5110P()
	arch.GlobalMemBytes = 1024 // absurdly small device
	dev := device.New(arch, false, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	if _, err := Build(ctx, Config{Visible: 64, Hidden: 64, Batch: 8, Seed: 1}); err == nil {
		t.Fatal("expected out-of-memory error")
	}
}

func TestModelOnlyTrainingChargesTime(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 21)
	m, err := Build(ctx, Config{Visible: 1024, Hidden: 4096, Beta: 0.1, Rho: 0.05, Batch: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dx := dev.MustAlloc(1000, 1024)
	dev.CopyIn(dx, nil, 0)
	if loss := m.Step(dx, 0.1); loss != 0 {
		t.Fatalf("model-only loss %g", loss)
	}
	if dev.Now() <= 0 {
		t.Fatal("no simulated time charged")
	}
	if dev.Stats().Flops < 2*2*1000*1024*4096 {
		t.Fatalf("flops understated: %g", dev.Stats().Flops)
	}
}

func TestFreeReleasesAllBuffers(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	cfg := testConfig()
	cfg.Batch, cfg.Seed = 4, 1
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Free()
	if dev.Allocated() != 0 {
		t.Fatalf("%d bytes leaked", dev.Allocated())
	}
}

func TestBatchMismatchPanics(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	cfg := testConfig()
	cfg.Batch, cfg.Seed = 4, 1
	m, _ := Build(ctx, cfg)
	dx := dev.MustAlloc(3, cfg.Visible)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Forward(dx)
}

func TestTrainableInterface(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	cfg := testConfig()
	cfg.Batch, cfg.Seed = 4, 1
	m, _ := Build(ctx, cfg)
	if m.BatchSize() != 4 || m.InputDim() != cfg.Visible {
		t.Fatal("Trainable accessors wrong")
	}
}
