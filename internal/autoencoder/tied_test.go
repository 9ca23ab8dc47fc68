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

// TestTiedReferenceGradientMatchesFiniteDifferences validates the combined
// encoder+decoder gradient on W1 (decoder perturbations flow through W1ᵀ).
func TestTiedReferenceGradientMatchesFiniteDifferences(t *testing.T) {
	cfg := Config{Visible: 7, Hidden: 5, Lambda: 1e-3, Beta: 0.2, Rho: 0.2, Tied: true}
	p := NewParams(cfg, 4)
	x := randBatch(rng.New(5), 6, cfg.Visible)
	grad := ZeroGrad(cfg)
	CostGrad(cfg, p, x, grad)

	const h = 1e-6
	maxRel := 0.0
	// Perturb W1 entries only: B1/B2 are covered by the untied test and W2
	// is unused when tied.
	for i := 0; i < cfg.Visible; i++ {
		for j := 0; j < cfg.Hidden; j += 2 {
			orig := p.W1.At(i, j)
			p.W1.Set(i, j, orig+h)
			cp := CostGrad(cfg, p, x, nil)
			p.W1.Set(i, j, orig-h)
			cm := CostGrad(cfg, p, x, nil)
			p.W1.Set(i, j, orig)
			numeric := (cp - cm) / (2 * h)
			analytic := grad.W1.At(i, j)
			denom := math.Max(1e-8, math.Abs(numeric)+math.Abs(analytic))
			if rel := math.Abs(numeric-analytic) / denom; rel > maxRel {
				maxRel = rel
			}
		}
	}
	if maxRel > 1e-5 {
		t.Fatalf("tied W1 gradient error %g", maxRel)
	}
	// W2 must be untouched by the tied gradient.
	if grad.W2.SumSquares() != 0 {
		t.Fatal("tied gradient wrote into W2")
	}
}

func TestTiedDeviceMatchesReference(t *testing.T) {
	cfg := Config{Visible: 8, Hidden: 5, Lambda: 1e-3, Beta: 0.3, Rho: 0.2, Tied: true, Batch: 6, Seed: 5}
	batch := cfg.Batch
	x := randBatch(rng.New(9), batch, cfg.Visible)
	p := NewParams(cfg, 5)
	refGrad := ZeroGrad(cfg)
	refCost := CostGrad(cfg, p, x, refGrad)

	for _, lvl := range []kernels.Level{kernels.Naive, kernels.ParallelBlocked} {
		for _, improved := range []bool{false, true} {
			dev := device.New(sim.XeonPhi5110P(), true, nil)
			ctx := blas.NewContext(dev, lvl, 1)
			ctx.AutoFuse = improved
			ctx.AutoConcurrent = improved
			m, err := Build(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Upload(p)
			dx := dev.MustAlloc(batch, cfg.Visible)
			dev.CopyIn(dx, x, 0)
			if cost := m.Cost(dx); math.Abs(cost-refCost) > 1e-10 {
				t.Errorf("level %v improved=%v: cost %g vs %g", lvl, improved, cost, refCost)
			}
			m.Forward(dx)
			m.Backward(dx)
			if d := tensor.MaxAbsDiff(m.GW1.Mat, refGrad.W1); d > 1e-10 {
				t.Errorf("level %v improved=%v: GW1 diff %g", lvl, improved, d)
			}
			if d := tensor.MaxAbsDiff(m.GB1.Mat, refGrad.B1.AsRow()); d > 1e-10 {
				t.Errorf("level %v improved=%v: GB1 diff %g", lvl, improved, d)
			}
			if d := tensor.MaxAbsDiff(m.GB2.Mat, refGrad.B2.AsRow()); d > 1e-10 {
				t.Errorf("level %v improved=%v: GB2 diff %g", lvl, improved, d)
			}
		}
	}
}

func TestTiedTrainingAndMemoryFootprint(t *testing.T) {
	cfg := Config{Visible: 16, Hidden: 8, Lambda: 1e-6, Tied: true, Batch: 20, Seed: 11}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 2)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tied model must allocate noticeably less than the untied one.
	tiedBytes := dev.Allocated()
	dev2 := device.New(sim.XeonPhi5110P(), true, nil)
	untied, err := Build(blas.NewContext(dev2, kernels.ParallelBlocked, 2), Config{Visible: 16, Hidden: 8, Lambda: 1e-6, Batch: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if tiedBytes >= dev2.Allocated() {
		t.Fatalf("tied model not smaller: %d vs %d bytes", tiedBytes, dev2.Allocated())
	}
	untied.Free()

	x := lowRankBatch(rng.New(12), 20, cfg.Visible)
	dx := dev.MustAlloc(20, cfg.Visible)
	dev.CopyIn(dx, x, 0)
	first := m.Step(dx, 1.0)
	var last float64
	for i := 0; i < 500; i++ {
		last = m.Step(dx, 1.0)
	}
	if !(last < 0.5*first) {
		t.Fatalf("tied AE did not learn: %g → %g", first, last)
	}
	// Download mirrors W1ᵀ into W2.
	got := m.Download()
	if d := tensor.MaxAbsDiff(got.W2, got.W1.T()); d != 0 {
		t.Fatalf("Download W2 != W1ᵀ: %g", d)
	}
	m.Free()
	if dev.Allocated() != 8*20*16 { // only the data buffer remains
		t.Fatalf("leak after Free: %d bytes", dev.Allocated())
	}
}

func TestTiedWithMomentumAndCorruption(t *testing.T) {
	cfg := Config{Visible: 12, Hidden: 6, Tied: true, Momentum: 0.8, Corruption: 0.2, Batch: 16, Seed: 7}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 3)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := lowRankBatch(rng.New(8), 16, cfg.Visible)
	dx := dev.MustAlloc(16, cfg.Visible)
	dev.CopyIn(dx, x, 0)
	first := m.Step(dx, 0.5)
	var last float64
	for i := 0; i < 400; i++ {
		last = m.Step(dx, 0.5)
	}
	if !(last < first) {
		t.Fatalf("tied+momentum+denoising did not learn: %g → %g", first, last)
	}
	m.Free()
	if dev.Allocated() != 8*16*12 {
		t.Fatalf("leak after Free: %d bytes", dev.Allocated())
	}
}
