package rbm

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

func binaryBatch(r *rng.RNG, n, dim int, p float64) *tensor.Matrix {
	x := tensor.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		for j := range row {
			row[j] = r.Bernoulli(p)
		}
	}
	return x
}

// stripeBatch samples from a two-mode distribution: either the left or the
// right half of the units is on (plus flip noise) — an easily learnable
// structure for a small RBM.
func stripeBatch(r *rng.RNG, n, dim int) *tensor.Matrix {
	x := tensor.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		left := r.Float64() < 0.5
		for j := range row {
			on := (j < dim/2) == left
			v := 0.0
			if on {
				v = 1
			}
			if r.Float64() < 0.05 { // flip noise
				v = 1 - v
			}
			row[j] = v
		}
	}
	return x
}

func TestConditionalProbabilities(t *testing.T) {
	cfg := Config{Visible: 3, Hidden: 2}
	p := NewParams(cfg, 1)
	p.W.Set(0, 0, 0.5)
	p.W.Set(2, 1, -1.5)
	p.B[1] = 0.3
	p.C[0] = -0.2
	v := tensor.Vector{1, 0, 1}
	h := p.HiddenProb(v)
	// p(h_0|v) = σ(c0 + W[0,0]v0 + W[1,0]v1 + W[2,0]v2).
	want0 := 1 / (1 + math.Exp(-(-0.2 + 0.5*1 + p.W.At(1, 0)*0 + p.W.At(2, 0)*1)))
	if math.Abs(h[0]-want0) > 1e-12 {
		t.Fatalf("HiddenProb[0] = %g want %g", h[0], want0)
	}
	hv := tensor.Vector{1, 1}
	vis := p.VisibleProb(hv)
	want1 := 1 / (1 + math.Exp(-(0.3 + p.W.At(1, 0) + p.W.At(1, 1))))
	if math.Abs(vis[1]-want1) > 1e-12 {
		t.Fatalf("VisibleProb[1] = %g want %g", vis[1], want1)
	}
}

func TestEnergyFreeEnergyConsistency(t *testing.T) {
	// e^{−F(v)} must equal Σ_h e^{−E(v,h)}.
	cfg := Config{Visible: 4, Hidden: 3}
	p := NewParams(cfg, 3)
	p.W.RandomizeNorm(rng.New(4), 0.7)
	p.B.Randomize(rng.New(5), -0.5, 0.5)
	p.C.Randomize(rng.New(6), -0.5, 0.5)
	v := tensor.Vector{1, 0, 1, 1}
	sum := 0.0
	h := tensor.NewVector(3)
	for bits := 0; bits < 8; bits++ {
		for j := 0; j < 3; j++ {
			h[j] = float64((bits >> j) & 1)
		}
		sum += math.Exp(-p.Energy(v, h))
	}
	if math.Abs(math.Log(sum)+p.FreeEnergy(v)) > 1e-10 {
		t.Fatalf("free energy inconsistent: log Σ e^-E = %g, -F = %g", math.Log(sum), -p.FreeEnergy(v))
	}
}

// TestCDGradApproximatesExactGrad: on a tiny machine, the mean-field CD-1
// gradient must be positively aligned with the exact likelihood gradient —
// CD is a biased but descent-aligned approximation.
func TestCDGradApproximatesExactGrad(t *testing.T) {
	cfg := Config{Visible: 5, Hidden: 3}
	p := NewParams(cfg, 8)
	p.W.RandomizeNorm(rng.New(9), 0.3)
	x := binaryBatch(rng.New(10), 40, 5, 0.4)
	cd := ZeroGrad(cfg)
	exact := ZeroGrad(cfg)
	CDGradMeanField(cfg, p, x, cd)
	ExactGrad(cfg, p, x, exact)
	dot, ncd, nex := 0.0, 0.0, 0.0
	acc := func(a, b *tensor.Matrix) {
		for i := 0; i < a.Rows; i++ {
			ra, rb := a.RowView(i), b.RowView(i)
			for j := range ra {
				dot += ra[j] * rb[j]
				ncd += ra[j] * ra[j]
				nex += rb[j] * rb[j]
			}
		}
	}
	acc(cd.W, exact.W)
	acc(cd.B.AsRow(), exact.B.AsRow())
	acc(cd.C.AsRow(), exact.C.AsRow())
	cosine := dot / math.Sqrt(ncd*nex)
	if cosine < 0.5 {
		t.Fatalf("CD-1 gradient poorly aligned with exact gradient: cos=%g", cosine)
	}
}

// TestExactGradientAscentImprovesLikelihood sanity-checks the enumeration
// oracle itself.
func TestExactGradientAscentImprovesLikelihood(t *testing.T) {
	cfg := Config{Visible: 6, Hidden: 3}
	p := NewParams(cfg, 11)
	x := stripeBatch(rng.New(12), 60, 6)
	before := p.LogLikelihood(x)
	g := ZeroGrad(cfg)
	for i := 0; i < 150; i++ {
		ExactGrad(cfg, p, x, g)
		for r := 0; r < cfg.Visible; r++ {
			pw, gw := p.W.RowView(r), g.W.RowView(r)
			for j := range pw {
				pw[j] += 0.5 * gw[j]
			}
		}
		for j := range p.B {
			p.B[j] += 0.5 * g.B[j]
		}
		for j := range p.C {
			p.C[j] += 0.5 * g.C[j]
		}
	}
	after := p.LogLikelihood(x)
	if !(after > before+0.5) {
		t.Fatalf("exact ascent did not improve likelihood: %g → %g", before, after)
	}
}

// TestDeviceMeanFieldMatchesReference checks the device CD-1 gradient with
// sampling disabled against the loop oracle at every level.
func TestDeviceMeanFieldMatchesReference(t *testing.T) {
	cfg := Config{Visible: 7, Hidden: 4, Batch: 9, Seed: 14}
	batch := cfg.Batch
	x := binaryBatch(rng.New(13), batch, cfg.Visible, 0.5)
	p := NewParams(cfg, 14)
	p.W.RandomizeNorm(rng.New(15), 0.4)
	ref := ZeroGrad(cfg)
	CDGradMeanField(cfg, p, x, ref)

	pool := parallel.NewPool(3)
	defer pool.Close()
	for _, lvl := range kernels.Levels {
		for _, improved := range []bool{false, true} {
			dev := device.New(sim.XeonPhi5110P(), true, pool)
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

func TestTrainingImprovesLikelihoodAndReconstruction(t *testing.T) {
	cfg := Config{Visible: 8, Hidden: 4, SampleHidden: true, Batch: 30, Seed: 17}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 16)
	batch := cfg.Batch
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := stripeBatch(rng.New(18), batch, cfg.Visible)
	dx := dev.MustAlloc(batch, cfg.Visible)
	dev.CopyIn(dx, x, 0)
	before := m.Download().LogLikelihood(x)
	first := m.Step(dx, 0.4)
	var last float64
	for i := 0; i < 400; i++ {
		last = m.Step(dx, 0.4)
	}
	after := m.Download().LogLikelihood(x)
	if !(after > before+0.3) {
		t.Fatalf("CD training did not improve likelihood: %g → %g", before, after)
	}
	if !(last < first) {
		t.Fatalf("reconstruction error did not fall: %g → %g", first, last)
	}
}

func TestCDkMoreStepsStillWork(t *testing.T) {
	cfg := Config{Visible: 6, Hidden: 3, SampleHidden: true, SampleVisible: true, CDSteps: 3, Batch: 20, Seed: 20}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 19)
	batch := cfg.Batch
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := stripeBatch(rng.New(21), batch, cfg.Visible)
	dx := dev.MustAlloc(batch, cfg.Visible)
	dev.CopyIn(dx, x, 0)
	before := m.Download().LogLikelihood(x)
	for i := 0; i < 300; i++ {
		m.Step(dx, 0.3)
	}
	after := m.Download().LogLikelihood(x)
	if !(after > before) {
		t.Fatalf("CD-3 did not improve likelihood: %g → %g", before, after)
	}
}

func TestSamplingDeterministicPerSeed(t *testing.T) {
	cfg := Config{Visible: 6, Hidden: 4, SampleHidden: true, SampleVisible: true, Batch: 10, Seed: 24}
	run := func() *tensor.Matrix {
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		ctx := blas.NewContext(dev, kernels.ParallelBlocked, 23)
		m, _ := Build(ctx, cfg)
		x := binaryBatch(rng.New(25), 10, 6, 0.5)
		dx := dev.MustAlloc(10, 6)
		dev.CopyIn(dx, x, 0)
		for i := 0; i < 5; i++ {
			m.Step(dx, 0.2)
		}
		return m.Download().W
	}
	a, b := run(), run()
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("stochastic training not reproducible for a fixed seed")
	}
}

func TestConfigValidationAndDefaults(t *testing.T) {
	c := Config{Visible: 3, Hidden: 2}
	if err := c.Validate(); err != nil || c.CDSteps != 1 {
		t.Fatalf("defaulting failed: %v %d", err, c.CDSteps)
	}
	for _, bad := range []Config{
		{Visible: 0, Hidden: 2},
		{Visible: 2, Hidden: 0},
		{Visible: 2, Hidden: 2, CDSteps: -1},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v should fail", bad)
		}
	}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	if _, err := Build(ctx, Config{Visible: 2, Hidden: 2, Batch: 0, Seed: 1}); err == nil {
		t.Error("zero batch should fail")
	}
}

func TestFreeReleasesAllBuffers(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	m, err := Build(ctx, Config{Visible: 5, Hidden: 3, Batch: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Free()
	if dev.Allocated() != 0 {
		t.Fatalf("%d bytes leaked", dev.Allocated())
	}
}

func TestLogLikelihoodGuards(t *testing.T) {
	cfg := Config{Visible: 25, Hidden: 2}
	p := NewParams(cfg, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for infeasible enumeration")
		}
	}()
	p.LogLikelihood(tensor.NewMatrix(1, 25))
}

func TestTrainableInterface(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	m, _ := Build(ctx, Config{Visible: 5, Hidden: 3, Batch: 4, Seed: 1})
	if m.BatchSize() != 4 || m.InputDim() != 5 {
		t.Fatal("Trainable accessors wrong")
	}
}
