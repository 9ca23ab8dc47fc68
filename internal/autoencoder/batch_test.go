package autoencoder

import (
	"math"
	"testing"

	"phideep/internal/blas"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// TestBatchObjectiveMatchesReference: with β = 0 the streamed device
// objective must equal the host reference CostGrad on the whole dataset,
// for both multi-batch and single-batch streaming.
func TestBatchObjectiveMatchesReference(t *testing.T) {
	cfg := Config{Visible: 10, Hidden: 6, Lambda: 1e-3}
	x := randBatch(rng.New(3), 12, cfg.Visible)
	p := NewParams(cfg, 4)
	refGrad := ZeroGrad(cfg)
	refCost := CostGrad(cfg, p, x, refGrad)
	refFlat := refGrad.ParamSet().Flatten(nil)

	for _, batch := range []int{3, 12} {
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
		ctx.AutoFuse = true
		cfg.Batch, cfg.Seed = batch, 9
		m, err := Build(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		obj, theta, err := NewBatchObjective(m, data.InMemory{X: x})
		if err != nil {
			t.Fatal(err)
		}
		// Evaluate at the reference parameters.
		p.ParamSet().Flatten(theta)
		grad := tensor.NewVector(len(theta))
		cost := obj.Eval(theta, grad)
		if math.Abs(cost-refCost) > 1e-10 {
			t.Errorf("batch %d: cost %g vs reference %g", batch, cost, refCost)
		}
		for i := range grad {
			if math.Abs(grad[i]-refFlat[i]) > 1e-10 {
				t.Errorf("batch %d: grad[%d] = %g vs %g", batch, i, grad[i], refFlat[i])
				break
			}
		}
		// Cost-only evaluation agrees and skips gradient work.
		if c := obj.Eval(theta, nil); math.Abs(c-cost) > 1e-12 {
			t.Errorf("batch %d: cost-only eval %g vs %g", batch, c, cost)
		}
		obj.Free()
	}
}

// TestBatchObjectiveSingleChunkSparsityExact: with the dataset in one batch,
// the per-batch ρ̂ is the dataset ρ̂ and the sparsity term is exact too.
func TestBatchObjectiveSingleChunkSparsityExact(t *testing.T) {
	cfg := Config{Visible: 8, Hidden: 5, Lambda: 1e-4, Beta: 0.4, Rho: 0.15, Batch: 9, Seed: 7}
	x := randBatch(rng.New(5), 9, cfg.Visible)
	p := NewParams(cfg, 6)
	refGrad := ZeroGrad(cfg)
	refCost := CostGrad(cfg, p, x, refGrad)

	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	obj, theta, err := NewBatchObjective(m, data.InMemory{X: x})
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Free()
	p.ParamSet().Flatten(theta)
	grad := tensor.NewVector(len(theta))
	if cost := obj.Eval(theta, grad); math.Abs(cost-refCost) > 1e-10 {
		t.Fatalf("cost %g vs %g", cost, refCost)
	}
	refFlat := refGrad.ParamSet().Flatten(nil)
	for i := range grad {
		if math.Abs(grad[i]-refFlat[i]) > 1e-10 {
			t.Fatalf("grad[%d] mismatch", i)
		}
	}
}

func TestBatchObjectiveChargesSimulatedTime(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	m, err := Build(ctx, Config{Visible: 64, Hidden: 32, Batch: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	obj, theta, err := NewBatchObjective(m, data.Null{D: 64, N: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Free()
	before := dev.Now()
	grad := tensor.NewVector(len(theta))
	if c := obj.Eval(theta, grad); c != 0 {
		t.Fatalf("timing-only cost %g", c)
	}
	withGrad := dev.Now() - before
	if withGrad <= 0 {
		t.Fatal("no time charged")
	}
	before = dev.Now()
	obj.Eval(theta, nil)
	costOnly := dev.Now() - before
	if !(costOnly < withGrad) {
		t.Fatalf("cost-only eval (%g) not cheaper than gradient eval (%g)", costOnly, withGrad)
	}
}

func TestBatchObjectiveValidation(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	m, err := Build(ctx, Config{Visible: 8, Hidden: 4, Batch: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewBatchObjective(m, data.Null{D: 9, N: 10}); err == nil {
		t.Error("dim mismatch must fail")
	}
	if _, _, err := NewBatchObjective(m, data.Null{D: 8, N: 7}); err == nil {
		t.Error("non-multiple dataset must fail")
	}
}

func TestBatchObjectiveBuffersFreed(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	m, err := Build(ctx, Config{Visible: 8, Hidden: 4, Tied: true, Batch: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Allocated()
	obj, _, err := NewBatchObjective(m, data.Null{D: 8, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	obj.Free()
	if dev.Allocated() != before {
		t.Fatalf("leak: %d vs %d", dev.Allocated(), before)
	}
}
