package rbm

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

// gaussianClusters samples real-valued data from two Gaussian clusters —
// the kind of continuous input (natural-image patches) a binary RBM cannot
// model but a Gaussian–Bernoulli RBM can.
func gaussianClusters(r *rng.RNG, n, dim int) *tensor.Matrix {
	x := tensor.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		center := -1.0
		if r.Float64() < 0.5 {
			center = 1.0
		}
		for j := range row {
			c := center
			if j >= dim/2 {
				c = -center
			}
			row[j] = c + 0.3*r.Norm()
		}
	}
	return x
}

func TestGaussianVisibleMeanFieldMatchesReference(t *testing.T) {
	cfg := Config{Visible: 6, Hidden: 4, GaussianVisible: true, Batch: 9, Seed: 2}
	batch := cfg.Batch
	x := gaussianClusters(rng.New(1), batch, cfg.Visible)
	p := NewParams(cfg, 2)
	p.W.RandomizeNorm(rng.New(3), 0.3)
	ref := ZeroGrad(cfg)
	CDGradMeanField(cfg, p, x, ref)

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
			m.Gradient(dx)
			gw, gb, gc := m.Gradients()
			if d := tensor.MaxAbsDiff(gw.Mat, ref.W); d > 1e-11 {
				t.Errorf("level %v improved=%v: GW diff %g", lvl, improved, d)
			}
			if d := tensor.MaxAbsDiff(gb.Mat, ref.B.AsRow()); d > 1e-11 {
				t.Errorf("level %v improved=%v: GB diff %g", lvl, improved, d)
			}
			if d := tensor.MaxAbsDiff(gc.Mat, ref.C.AsRow()); d > 1e-11 {
				t.Errorf("level %v improved=%v: GC diff %g", lvl, improved, d)
			}
		}
	}
}

func TestGaussianRBMTrainsOnContinuousData(t *testing.T) {
	cfg := Config{Visible: 8, Hidden: 6, GaussianVisible: true, SampleHidden: true, Batch: 40, Seed: 8}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 7)
	batch := cfg.Batch
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := gaussianClusters(rng.New(9), batch, cfg.Visible)
	dx := dev.MustAlloc(batch, cfg.Visible)
	dev.CopyIn(dx, x, 0)
	first := m.Step(dx, 0.02)
	var last float64
	for i := 0; i < 500; i++ {
		last = m.Step(dx, 0.02)
	}
	if !(last < 0.5*first) {
		t.Fatalf("GRBM did not learn continuous data: %g → %g", first, last)
	}
	// Free energy should prefer training data over unstructured noise.
	p := m.Download()
	r := rng.New(11)
	fData, fNoise := 0.0, 0.0
	noise := tensor.NewVector(cfg.Visible)
	for i := 0; i < batch; i++ {
		fData += p.FreeEnergyGaussian(tensor.Vector(x.RowView(i)))
		for j := range noise {
			noise[j] = 2 * r.Norm()
		}
		fNoise += p.FreeEnergyGaussian(noise)
	}
	if !(fData < fNoise) {
		t.Fatalf("GRBM free energy does not prefer data: %g vs %g", fData/float64(batch), fNoise/float64(batch))
	}
}

func TestGaussianSamplingIsNoisyAroundTheMean(t *testing.T) {
	cfg := Config{Visible: 20, Hidden: 4, GaussianVisible: true, SampleVisible: true, SampleHidden: true, Batch: 50, Seed: 14}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 13)
	batch := cfg.Batch
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := gaussianClusters(rng.New(15), batch, cfg.Visible)
	dx := dev.MustAlloc(batch, cfg.Visible)
	dev.CopyIn(dx, x, 0)
	m.Gradient(dx)
	// v1 = pv1 + N(0,1): the residual must look like unit-variance noise.
	diff := tensor.NewMatrix(batch, cfg.Visible)
	kernels.Sub(nil, kernels.Naive, diff, m.v1.Mat, m.pv1.Mat)
	mean := diff.Mean()
	variance := diff.SumSquares()/float64(batch*cfg.Visible) - mean*mean
	if math.Abs(mean) > 0.15 || math.Abs(variance-1) > 0.25 {
		t.Fatalf("visible noise mean %g variance %g, want ≈(0, 1)", mean, variance)
	}
}

func TestAddGaussianNoiseDeterministic(t *testing.T) {
	mean := tensor.NewMatrix(20, 10)
	a := tensor.NewMatrix(20, 10)
	b := tensor.NewMatrix(20, 10)
	kernels.AddGaussianNoise(nil, kernels.Naive, a, mean, 1, rng.New(7))
	kernels.AddGaussianNoise(nil, kernels.Naive, b, mean, 1, rng.New(7))
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("Gaussian noise not deterministic per seed")
	}
	kernels.AddGaussianNoise(nil, kernels.ParallelBlocked, b, mean, 1, rng.New(7))
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("Gaussian noise depends on kernel level")
	}
	// sigma scales the spread.
	kernels.AddGaussianNoise(nil, kernels.Naive, b, mean, 0.1, rng.New(8))
	if b.SumSquares() >= a.SumSquares() {
		t.Fatal("sigma scaling wrong")
	}
}
