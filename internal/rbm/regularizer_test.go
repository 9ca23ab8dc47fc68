package rbm

import (
	"testing"

	"phideep/internal/blas"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/rng"
	"phideep/internal/sim"
)

func TestWeightDecayShrinksWeights(t *testing.T) {
	run := func(lambda float64) float64 {
		cfg := Config{Visible: 8, Hidden: 5, Lambda: lambda, SampleHidden: true, Batch: 20, Seed: 4}
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		ctx := blas.NewContext(dev, kernels.ParallelBlocked, 3)
		m, err := Build(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := stripeBatch(rng.New(5), 20, 8)
		dx := dev.MustAlloc(20, 8)
		dev.CopyIn(dx, x, 0)
		for i := 0; i < 200; i++ {
			m.Step(dx, 0.3)
		}
		return m.Download().W.FrobeniusNorm()
	}
	plain := run(0)
	decayed := run(0.01)
	if !(decayed < plain) {
		t.Fatalf("weight decay did not shrink weights: %g vs %g", decayed, plain)
	}
}

func TestWeightDecayMatchesManualGradient(t *testing.T) {
	cfg := Config{Visible: 5, Hidden: 3, Lambda: 0.02, Batch: 6, Seed: 7}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Download()
	x := binaryBatch(rng.New(8), 6, 5, 0.5)
	dx := dev.MustAlloc(6, 5)
	dev.CopyIn(dx, x, 0)
	m.Gradient(dx)
	// Reference: mean-field CD gradient minus λW.
	ref := ZeroGrad(Config{Visible: 5, Hidden: 3})
	CDGradMeanField(Config{Visible: 5, Hidden: 3}, p, x, ref)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			want := ref.W.At(i, j) - cfg.Lambda*p.W.At(i, j)
			if got := m.GW.Mat.At(i, j); got != want && (got-want > 1e-12 || want-got > 1e-12) {
				t.Fatalf("GW[%d,%d] = %g want %g", i, j, got, want)
			}
		}
	}
}

func TestSparsityRegularizerDrivesHiddenActivity(t *testing.T) {
	meanActivity := func(cost float64) float64 {
		cfg := Config{Visible: 10, Hidden: 8, SampleHidden: true,
			SparsityTarget: 0.1, SparsityCost: cost, Batch: 30, Seed: 10}
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		ctx := blas.NewContext(dev, kernels.ParallelBlocked, 9)
		m, err := Build(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := stripeBatch(rng.New(11), 30, 10)
		dx := dev.MustAlloc(30, 10)
		dev.CopyIn(dx, x, 0)
		for i := 0; i < 400; i++ {
			m.Step(dx, 0.2)
		}
		// Measure the positive-phase hidden mean after training.
		m.Gradient(dx)
		return m.HiddenProbs().Mat.Mean()
	}
	free := meanActivity(0)
	sparse := meanActivity(2)
	if !(sparse < free) {
		t.Fatalf("sparsity regularizer did not reduce hidden activity: %g vs %g", sparse, free)
	}
	if d := sparse - 0.1; d > 0.25 || d < -0.1 {
		t.Fatalf("sparse activity %g far from target 0.1", sparse)
	}
}

func TestRegularizerValidation(t *testing.T) {
	for _, bad := range []Config{
		{Visible: 4, Hidden: 2, Lambda: -1},
		{Visible: 4, Hidden: 2, SparsityCost: -1},
		{Visible: 4, Hidden: 2, SparsityCost: 1, SparsityTarget: 0},
		{Visible: 4, Hidden: 2, SparsityCost: 1, SparsityTarget: 1},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v should fail", bad)
		}
	}
	// Buffers freed including rowH.
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	m, err := Build(ctx, Config{Visible: 4, Hidden: 2, SparsityTarget: 0.1, SparsityCost: 1, Batch: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Free()
	if dev.Allocated() != 0 {
		t.Fatalf("%d bytes leaked", dev.Allocated())
	}
}
