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

func TestMomentumMatchesManualUpdate(t *testing.T) {
	cfg := Config{Visible: 6, Hidden: 4, Momentum: 0.8, Batch: 8, Seed: 2}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := binaryBatch(rng.New(3), 8, 6, 0.5)
	dx := dev.MustAlloc(8, 6)
	dev.CopyIn(dx, x, 0)

	// Mean-field CD gradients are deterministic, so a manual momentum
	// recursion on the host must track the device exactly.
	refCfg := Config{Visible: 6, Hidden: 4}
	want := m.Download()
	velW := tensor.NewMatrix(6, 4)
	const lr = 0.25
	for step := 0; step < 3; step++ {
		g := ZeroGrad(refCfg)
		CDGradMeanField(refCfg, want, x, g)
		for i := 0; i < 6; i++ {
			vr, gr, wr := velW.RowView(i), g.W.RowView(i), want.W.RowView(i)
			for j := range vr {
				vr[j] = 0.8*vr[j] + lr*gr[j]
				wr[j] += vr[j]
			}
		}
		m.Step(dx, lr)
		got := m.Download()
		// Track biases from the device (only W is manually replicated).
		want.B = got.B.Clone()
		want.C = got.C.Clone()
		if d := tensor.MaxAbsDiff(want.W, got.W); d > 1e-9 {
			t.Fatalf("step %d: momentum update diverged by %g", step, d)
		}
	}
}

func TestMomentumTrainingStillImprovesLikelihood(t *testing.T) {
	cfg := Config{Visible: 8, Hidden: 4, SampleHidden: true, Momentum: 0.5, Batch: 30, Seed: 17}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 16)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := stripeBatch(rng.New(18), 30, 8)
	dx := dev.MustAlloc(30, 8)
	dev.CopyIn(dx, x, 0)
	before := m.Download().LogLikelihood(x)
	for i := 0; i < 300; i++ {
		m.Step(dx, 0.3)
	}
	after := m.Download().LogLikelihood(x)
	if !(after > before+0.3) {
		t.Fatalf("momentum CD did not improve likelihood: %g → %g", before, after)
	}
}

func TestMomentumValidationAndFree(t *testing.T) {
	bad := Config{Visible: 4, Hidden: 2, Momentum: 1}
	if bad.Validate() == nil {
		t.Error("momentum 1 should be invalid")
	}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	m, err := Build(ctx, Config{Visible: 4, Hidden: 2, Momentum: 0.9, Batch: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Free()
	if dev.Allocated() != 0 {
		t.Fatalf("%d bytes leaked", dev.Allocated())
	}
}
