// Tests of the public API facade: everything a downstream user touches,
// exercised end to end through the module root only.
package phideep_test

import (
	"bytes"
	"math"
	"testing"

	"phideep"
)

func TestEndToEndNumericTraining(t *testing.T) {
	mach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
	defer mach.Close()
	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, 42)
	ae, err := phideep.BuildAutoencoder(ctx, phideep.AutoencoderConfig{
		Visible: 64, Hidden: 16, Lambda: 1e-5,
		Batch: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainer := &phideep.Trainer{Dev: mach.Dev, Cfg: phideep.TrainConfig{
		Epochs: 10, LR: 0.8, Prefetch: true,
	}}
	res, err := trainer.Run(ae, phideep.NewDigits(8, 200, 7, 0.03))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.FinalLoss < res.FirstLoss) {
		t.Fatalf("did not learn: %g → %g", res.FirstLoss, res.FinalLoss)
	}
	if res.SimSeconds <= 0 || res.Device.Ops == 0 {
		t.Fatal("no simulated activity recorded")
	}
}

func TestLadderComparisonThroughFacade(t *testing.T) {
	timeAt := func(lvl phideep.OptLevel) float64 {
		mach := phideep.NewMachine(phideep.XeonPhi5110P())
		ctx := phideep.NewContext(mach.Dev, lvl, 0, 1)
		ae, err := phideep.BuildAutoencoder(ctx, phideep.AutoencoderConfig{Visible: 1024, Hidden: 512, Batch: 1000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := &phideep.Trainer{Dev: mach.Dev, Cfg: phideep.TrainConfig{Iterations: 5, LR: 0.1, Prefetch: true}}
		res, err := tr.Run(ae, nullSrc{1024, 10000})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimSeconds
	}
	if !(timeAt(phideep.Improved) < timeAt(phideep.OpenMP) && timeAt(phideep.OpenMP) < timeAt(phideep.Baseline)) {
		t.Fatal("optimization ladder not monotone through the facade")
	}
}

type nullSrc struct{ d, n int }

func (s nullSrc) Dim() int                                { return s.d }
func (s nullSrc) Len() int                                { return s.n }
func (s nullSrc) Chunk(start, n int, dst *phideep.Matrix) {}

func TestDBNAndCheckpointRoundTrip(t *testing.T) {
	mach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
	defer mach.Close()
	ctx := phideep.NewContext(mach.Dev, phideep.OpenMPMKL, 0, 5)
	cfg := phideep.StackConfig{
		Sizes: []int{64, 24, 8}, Batch: 20, LR: 0.3,
		RBM: phideep.RBMConfig{SampleHidden: true},
	}
	res, err := phideep.PretrainDBN(ctx,
		phideep.TrainConfig{Epochs: 2, LR: 0.3, Prefetch: true},
		cfg, phideep.NewDigits(8, 100, 3, 0), 9)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint the first RBM and restore it into a fresh parameter set.
	var buf bytes.Buffer
	if err := res.Layers[0].RBM.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := phideep.NewRBMParams(phideep.RBMConfig{Visible: 64, Hidden: 24}, 99)
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	v := phideep.NewVector(64)
	for i := range v {
		v[i] = float64(i % 2)
	}
	if math.Abs(restored.FreeEnergy(v)-res.Layers[0].RBM.FreeEnergy(v)) > 1e-12 {
		t.Fatal("restored RBM differs from the trained one")
	}
}

func TestMLPFineTuningThroughFacade(t *testing.T) {
	mach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
	defer mach.Close()
	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, 11)
	m, err := phideep.BuildMLP(ctx, phideep.MLPConfig{Sizes: []int{64, 16, 10}, Momentum: 0.5, Batch: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	digits := phideep.NewDigits(8, 25, 13, 0.02)
	x := phideep.NewMatrix(25, 64)
	digits.Chunk(0, 25, x)
	labels := make([]int, 25)
	for i := range labels {
		labels[i] = digits.Label(i)
	}
	y := phideep.NewMatrix(25, 10)
	phideep.OneHot(labels, y)
	dx, dy := mach.Dev.MustAlloc(25, 64), mach.Dev.MustAlloc(25, 10)
	mach.Dev.CopyIn(dx, x, 0)
	mach.Dev.CopyIn(dy, y, 0)
	first := m.StepLabeled(dx, dy, 0.3)
	var last float64
	for i := 0; i < 150; i++ {
		last = m.StepLabeled(dx, dy, 0.3)
	}
	if !(last < first) {
		t.Fatalf("fine-tuning did not learn: %g → %g", first, last)
	}
	if acc := m.Accuracy(dx, dy); acc < 0.8 {
		t.Fatalf("training accuracy %g", acc)
	}
}

func TestBatchOptimizersThroughFacade(t *testing.T) {
	cfg := phideep.AutoencoderConfig{Visible: 9, Hidden: 4, Lambda: 1e-5}
	patches := phideep.NewNaturalPatches(3, 40, 3)
	x := phideep.NewMatrix(40, 9)
	patches.Chunk(0, 40, x)
	p := phideep.NewAutoencoderParams(cfg, 2)
	obj, theta := phideep.AutoencoderObjective(cfg, p, x)
	start := phideep.AutoencoderCost(cfg, p, x)
	res := phideep.LBFGS(obj, theta, phideep.LBFGSConfig{MaxIter: 30})
	if !(res.Cost < start) {
		t.Fatalf("L-BFGS made no progress: %g → %g", start, res.Cost)
	}
	p2 := phideep.NewAutoencoderParams(cfg, 2)
	obj2, theta2 := phideep.AutoencoderObjective(cfg, p2, x)
	res2 := phideep.CG(obj2, theta2, phideep.CGConfig{MaxIter: 30})
	if !(res2.Cost < start) {
		t.Fatalf("CG made no progress: %g → %g", start, res2.Cost)
	}
}

func TestHybridThroughFacade(t *testing.T) {
	phiMach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
	hostMach := phideep.NewMachine(phideep.XeonE5620Dual(), phideep.WithNumeric())
	defer phiMach.Close()
	defer hostMach.Close()
	phiCtx := phideep.NewContext(phiMach.Dev, phideep.Improved, 0, 1)
	hostCtx := phideep.NewContext(hostMach.Dev, phideep.OpenMPMKL, 0, 2)
	h, err := phideep.BuildHybridAE(phiCtx, hostCtx, phideep.HybridAEConfig{
		Model: phideep.AutoencoderConfig{Visible: 64, Hidden: 8},
		Batch: 10,
		Seed:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Free()
	x := phideep.NewMatrix(10, 64)
	src := phideep.NewDigits(8, 10, 5, 0)
	src.Chunk(0, 10, x)
	first := h.Step(x, 0.5)
	var last float64
	for i := 0; i < 100; i++ {
		last = h.Step(x, 0.5)
	}
	if !(last < first) {
		t.Fatalf("hybrid did not learn: %g → %g", first, last)
	}
	if h.SimSeconds() <= 0 {
		t.Fatal("no synchronized simulated time")
	}
}

func TestTunerThroughFacade(t *testing.T) {
	w := phideep.TuneAEWorkload{
		Arch:            phideep.XeonPhi5110P(),
		Model:           phideep.AutoencoderConfig{Visible: 256, Hidden: 512},
		Batch:           500,
		Iterations:      5,
		DatasetExamples: 10000,
	}
	res, err := w.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.SimSeconds <= 0 || len(res.All) == 0 {
		t.Fatalf("empty tuning result: %+v", res)
	}
}

func TestAdaptiveLRThroughFacade(t *testing.T) {
	mach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
	defer mach.Close()
	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, 8)
	ae, err := phideep.BuildAutoencoder(ctx, phideep.AutoencoderConfig{Visible: 64, Hidden: 12, Batch: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := &phideep.Trainer{Dev: mach.Dev, Cfg: phideep.TrainConfig{
		Epochs: 5, Adaptive: phideep.NewBoldDriver(0.1), Prefetch: true,
	}}
	res, err := tr.Run(ae, phideep.NewDigits(8, 100, 7, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.FinalLoss < res.FirstLoss) {
		t.Fatalf("adaptive run did not learn: %g → %g", res.FirstLoss, res.FinalLoss)
	}
}

func TestDeviceTraceThroughFacade(t *testing.T) {
	mach := phideep.NewMachine(phideep.XeonPhi5110P())
	mach.Dev.EnableTrace(100)
	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, 1)
	ae, err := phideep.BuildAutoencoder(ctx, phideep.AutoencoderConfig{Visible: 32, Hidden: 8, Batch: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dx := mach.Dev.MustAlloc(10, 32)
	mach.Dev.CopyIn(dx, nil, 0)
	ae.Step(dx, 0.1)
	events, _ := mach.Dev.Trace()
	if len(events) == 0 {
		t.Fatal("no trace events through the facade")
	}
	var sb bytes.Buffer
	if err := mach.Dev.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}
