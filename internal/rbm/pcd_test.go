package rbm

import (
	"testing"

	"phideep/internal/blas"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func TestPCDImprovesLikelihood(t *testing.T) {
	cfg := Config{Visible: 8, Hidden: 4, SampleHidden: true, SampleVisible: true, Persistent: true, Batch: 30, Seed: 17}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 16)
	batch := cfg.Batch
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := stripeBatch(rng.New(18), batch, 8)
	dx := dev.MustAlloc(batch, 8)
	dev.CopyIn(dx, x, 0)
	before := m.Download().LogLikelihood(x)
	for i := 0; i < 400; i++ {
		m.Step(dx, 0.1)
	}
	after := m.Download().LogLikelihood(x)
	if !(after > before+0.3) {
		t.Fatalf("PCD did not improve likelihood: %g → %g", before, after)
	}
}

func TestPCDChainPersistsAcrossSteps(t *testing.T) {
	cfg := Config{Visible: 6, Hidden: 3, SampleHidden: true, SampleVisible: true, Persistent: true, Batch: 10, Seed: 24}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 23)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := binaryBatch(rng.New(25), 10, 6, 0.5)
	dx := dev.MustAlloc(10, 6)
	dev.CopyIn(dx, x, 0)
	m.Step(dx, 0.2)
	chain1 := m.pchain.Mat.Clone()
	// The chain was seeded and then advanced: it should differ from the
	// data (stochastic reconstruction).
	if tensor.MaxAbsDiff(chain1, dx.Mat) == 0 {
		t.Fatal("chain did not move off the data")
	}
	m.Step(dx, 0.2)
	chain2 := m.pchain.Mat
	if tensor.MaxAbsDiff(chain1, chain2) == 0 {
		t.Fatal("chain did not evolve across steps")
	}
}

func TestPCDFreeAndValidation(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	m, err := Build(ctx, Config{Visible: 4, Hidden: 2, Persistent: true, Batch: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Free()
	if dev.Allocated() != 0 {
		t.Fatalf("%d bytes leaked", dev.Allocated())
	}
}

func TestCopyOp(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	src := dev.MustAlloc(3, 3)
	src.Mat.Fill(7)
	dst := dev.MustAlloc(3, 3)
	before := dev.Now()
	ctx.Copy(dst, src)
	if tensor.MaxAbsDiff(dst.Mat, src.Mat) != 0 {
		t.Fatal("Copy did not copy")
	}
	if !(dev.Now() > before) {
		t.Fatal("Copy charged no simulated time")
	}
}
