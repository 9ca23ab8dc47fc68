package autoencoder

import (
	"math"
	"testing"

	"phideep/internal/blas"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func TestMomentumMatchesManualUpdate(t *testing.T) {
	cfg := Config{Visible: 6, Hidden: 4, Momentum: 0.9, Batch: 5, Seed: 3}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch(rng.New(4), 5, cfg.Visible)
	dx := dev.MustAlloc(5, cfg.Visible)
	dev.CopyIn(dx, x, 0)

	// Manual replica of the momentum recursion over two steps, using the
	// gradients the device computes.
	p0 := m.Download()
	velW1 := tensor.NewMatrix(cfg.Visible, cfg.Hidden)
	want := p0.Clone()
	refCfg := cfg // reference gradient has no momentum field effects
	const lr = 0.3
	for step := 0; step < 2; step++ {
		grad := ZeroGrad(refCfg)
		CostGrad(refCfg, want, x, grad)
		for i := 0; i < cfg.Visible; i++ {
			vRow, gRow, wRow := velW1.RowView(i), grad.W1.RowView(i), want.W1.RowView(i)
			for j := range vRow {
				vRow[j] = 0.9*vRow[j] - lr*gRow[j]
				wRow[j] += vRow[j]
			}
		}
		// Biases and W2 are not tracked here; W1 suffices for the check.
		// Keep the reference's other parameters in sync with the device.
		m.Step(dx, lr)
		got := m.Download()
		want.W2 = got.W2.Clone()
		want.B1 = got.B1.Clone()
		want.B2 = got.B2.Clone()
		if d := tensor.MaxAbsDiff(want.W1, got.W1); d > 1e-9 {
			t.Fatalf("step %d: W1 momentum update diverged by %g", step, d)
		}
	}
}

func TestMomentumAcceleratesConvergence(t *testing.T) {
	run := func(momentum float64) float64 {
		cfg := Config{Visible: 16, Hidden: 8, Lambda: 1e-5, Momentum: momentum, Batch: 20, Seed: 11}
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		ctx := blas.NewContext(dev, kernels.ParallelBlocked, 2)
		m, err := Build(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := lowRankBatch(rng.New(12), 20, cfg.Visible)
		dx := dev.MustAlloc(20, cfg.Visible)
		dev.CopyIn(dx, x, 0)
		last := 0.0
		for i := 0; i < 150; i++ {
			last = m.Step(dx, 0.3)
		}
		return last
	}
	plain := run(0)
	withMomentum := run(0.9)
	if !(withMomentum < plain) {
		t.Fatalf("momentum did not accelerate: plain %g vs momentum %g", plain, withMomentum)
	}
}

func TestDenoisingCorruptionMasksInput(t *testing.T) {
	cfg := Config{Visible: 30, Hidden: 10, Corruption: 0.5, Batch: 40, Seed: 5}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 7)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(40, 30)
	x.Fill(1)
	dx := dev.MustAlloc(40, 30)
	dev.CopyIn(dx, x, 0)
	m.Step(dx, 0.1)
	// The corrupted copy must contain zeros at roughly the corruption rate
	// while the original stays untouched.
	kept := m.xc.Mat.Mean()
	if math.Abs(kept-0.5) > 0.1 {
		t.Fatalf("keep fraction %g, want ≈0.5", kept)
	}
	if dx.Mat.Mean() != 1 {
		t.Fatal("clean input was modified")
	}
}

func TestDenoisingTrainsToReconstructCleanInput(t *testing.T) {
	cfg := Config{Visible: 16, Hidden: 12, Corruption: 0.3, Lambda: 1e-6, Batch: 24, Seed: 6}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 9)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := lowRankBatch(rng.New(7), 24, cfg.Visible)
	dx := dev.MustAlloc(24, cfg.Visible)
	dev.CopyIn(dx, x, 0)
	first := m.Step(dx, 0.8)
	var last float64
	for i := 0; i < 600; i++ {
		last = m.Step(dx, 0.8)
	}
	if !(last < 0.7*first) {
		t.Fatalf("denoising AE did not learn: %g → %g", first, last)
	}
	// Denoising reconstruction from clean input must also be good.
	m.Forward(dx)
	clean := ctx.SumSquaredDiff(m.Output(), dx) / (2 * 24)
	if !(clean <= last*1.5) {
		t.Fatalf("clean-input reconstruction %g much worse than training loss %g", clean, last)
	}
}

func TestExtendedConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Visible: 4, Hidden: 2, Momentum: -0.1},
		{Visible: 4, Hidden: 2, Momentum: 1},
		{Visible: 4, Hidden: 2, Corruption: -0.1},
		{Visible: 4, Hidden: 2, Corruption: 1},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v should be invalid", bad)
		}
	}
}

func TestExtendedBuffersFreed(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	m, err := Build(ctx, Config{Visible: 8, Hidden: 4, Momentum: 0.5, Corruption: 0.2, Batch: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Free()
	if dev.Allocated() != 0 {
		t.Fatalf("%d bytes leaked", dev.Allocated())
	}
}
