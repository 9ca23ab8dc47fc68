package mlp

import (
	"math"
	"testing"

	"phideep/internal/blas"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/stack"
	"phideep/internal/tensor"
)

func testCfg() Config {
	return Config{Sizes: []int{10, 7, 5, 3}, Lambda: 1e-3}
}

func labeledBatch(r *rng.RNG, n, dim, classes int) (*tensor.Matrix, *tensor.Matrix, []int) {
	x := tensor.NewMatrix(n, dim).Randomize(r, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = r.Intn(classes)
	}
	y := tensor.NewMatrix(n, classes)
	kernels.OneHot(labels, y)
	return x, y, labels
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	cfg := testCfg()
	p := NewParams(cfg, 1)
	x, y, _ := labeledBatch(rng.New(2), 6, 10, 3)
	grad := zeroParams(cfg)
	CostGrad(cfg, p, x, y, grad)
	ps := p.ParamSet()
	theta := ps.Flatten(nil)
	analytic := grad.ParamSet().Flatten(nil)
	const h = 1e-6
	maxRel := 0.0
	for i := 0; i < len(theta); i += 5 {
		orig := theta[i]
		theta[i] = orig + h
		ps.Unflatten(theta)
		cp := CostGrad(cfg, p, x, y, nil)
		theta[i] = orig - h
		ps.Unflatten(theta)
		cm := CostGrad(cfg, p, x, y, nil)
		theta[i] = orig
		ps.Unflatten(theta)
		numeric := (cp - cm) / (2 * h)
		denom := math.Max(1e-8, math.Abs(numeric)+math.Abs(analytic[i]))
		if rel := math.Abs(numeric-analytic[i]) / denom; rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 1e-5 {
		t.Fatalf("max relative gradient error %g", maxRel)
	}
}

func TestDeviceMatchesReference(t *testing.T) {
	cfg := testCfg()
	batch := 6
	cfg.Batch, cfg.Seed = batch, 4
	x, y, _ := labeledBatch(rng.New(3), batch, 10, 3)
	p := NewParams(cfg, 4)
	refGrad := zeroParams(cfg)
	refCost := CostGrad(cfg, p, x, y, refGrad)

	for _, lvl := range kernels.Levels {
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
			dx, dy := dev.MustAlloc(batch, 10), dev.MustAlloc(batch, 3)
			dev.CopyIn(dx, x, 0)
			dev.CopyIn(dy, y, 0)
			m.Forward(dx)
			loss := ctx.CrossEntropyOneHot(m.Probs(), dy) / float64(batch)
			// Reference cost includes the λ term; the step loss does not.
			l2 := 0.0
			for l := range p.W {
				l2 += cfg.Lambda / 2 * p.W[l].SumSquares()
			}
			if math.Abs(loss+l2-refCost) > 1e-10 {
				t.Errorf("level %v improved=%v: loss %g vs reference %g", lvl, improved, loss+l2, refCost)
			}
			m.Backward(dx, dy)
			for l := range m.GW {
				if d := tensor.MaxAbsDiff(m.GW[l].Mat, refGrad.W[l]); d > 1e-10 {
					t.Errorf("level %v improved=%v: GW[%d] diff %g", lvl, improved, l, d)
				}
				if d := tensor.MaxAbsDiff(m.GB[l].Mat, refGrad.B[l].AsRow()); d > 1e-10 {
					t.Errorf("level %v improved=%v: GB[%d] diff %g", lvl, improved, l, d)
				}
			}
		}
	}
}

// separableBatch builds a linearly separable 3-class problem with cluster
// centers on coordinate axes.
func separableBatch(r *rng.RNG, n, dim, classes int) (*tensor.Matrix, *tensor.Matrix, []int) {
	x := tensor.NewMatrix(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(classes)
		labels[i] = c
		row := x.RowView(i)
		for j := range row {
			row[j] = 0.2*r.Float64() + 0.1
		}
		for j := c; j < dim; j += classes {
			row[j] += 0.6
		}
	}
	y := tensor.NewMatrix(n, classes)
	kernels.OneHot(labels, y)
	return x, y, labels
}

func TestTrainingLearnsSeparableProblem(t *testing.T) {
	cfg := Config{Sizes: []int{12, 8, 3}, Lambda: 1e-5, Momentum: 0.5, Batch: 60, Seed: 6}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 5)
	batch := cfg.Batch
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, y, _ := separableBatch(rng.New(7), batch, 12, 3)
	dx, dy := dev.MustAlloc(batch, 12), dev.MustAlloc(batch, 3)
	dev.CopyIn(dx, x, 0)
	dev.CopyIn(dy, y, 0)
	first := m.StepLabeled(dx, dy, 0.5)
	var last float64
	for i := 0; i < 300; i++ {
		last = m.StepLabeled(dx, dy, 0.5)
	}
	if !(last < 0.3*first) {
		t.Fatalf("cross-entropy did not fall: %g → %g", first, last)
	}
	if acc := m.Accuracy(dx, dy); acc < 0.95 {
		t.Fatalf("training accuracy %g on a separable problem", acc)
	}
}

func TestInitFromStackWiring(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := core.NewContext(dev, core.Improved, 0, 8)
	scfg := stack.Config{Sizes: []int{16, 8, 4}, Batch: 10, LR: 0.5, Lambda: 1e-5}
	tc := core.TrainConfig{Iterations: 5, LR: 0.5, Prefetch: true}
	src := data.InMemory{X: tensor.NewMatrix(40, 16).Randomize(rng.New(30), 0.1, 0.9)}
	res, err := stack.PretrainAutoencoders(ctx, tc, scfg, src, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sizes: []int{16, 8, 4, 3}, Lambda: 1e-5, Batch: 4, Seed: 1}
	// Wrong geometry must be rejected.
	badCfg := Config{Sizes: []int{16, 9, 4, 3}, Batch: 4, Seed: 1}
	bad, err := Build(blas.NewContext(dev, kernels.Naive, 1), badCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.InitFromStack(res); err == nil {
		t.Error("geometry mismatch must fail")
	}
	bad.Free()

	m, err := Build(blas.NewContext(dev, kernels.Naive, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InitFromStack(res); err != nil {
		t.Fatal(err)
	}
	got := m.Download()
	if d := tensor.MaxAbsDiff(got.W[0], res.Layers[0].AE.W1); d != 0 {
		t.Errorf("layer 0 weights not copied: diff %g", d)
	}
	if d := tensor.MaxAbsDiff(got.W[1], res.Layers[1].AE.W1); d != 0 {
		t.Errorf("layer 1 weights not copied: diff %g", d)
	}
	// Too-deep stacks rejected.
	deep := &stack.Result{Layers: append(append([]stack.LayerResult{}, res.Layers...), res.Layers...)}
	if err := m.InitFromStack(deep); err == nil {
		t.Error("stack deeper than hidden layers must fail")
	}
	m.Free()
}

func TestPredictMatchesDeviceForward(t *testing.T) {
	cfg := testCfg()
	p := NewParams(cfg, 11)
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	batch := 4
	cfg.Batch, cfg.Seed = batch, 11
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Upload(p)
	x, _, _ := labeledBatch(rng.New(12), batch, 10, 3)
	dx := dev.MustAlloc(batch, 10)
	dev.CopyIn(dx, x, 0)
	m.Forward(dx)
	for i := 0; i < batch; i++ {
		want := p.Predict(cfg, x.RowView(i))
		row := m.Probs().Mat.RowView(i)
		best, bestV := 0, math.Inf(-1)
		for j, v := range row {
			if v > bestV {
				best, bestV = j, v
			}
		}
		if best != want {
			t.Fatalf("row %d: device argmax %d, reference %d", i, best, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Sizes: []int{5}},
		{Sizes: []int{5, 0, 3}},
		{Sizes: []int{5, 3}, Lambda: -1},
		{Sizes: []int{5, 3}, Momentum: 1},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v should fail", bad)
		}
	}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	if _, err := Build(ctx, Config{Sizes: []int{4, 2}, Batch: 0, Seed: 1}); err == nil {
		t.Error("zero batch must fail")
	}
}

func TestFreeReleasesAll(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.Naive, 1)
	m, err := Build(ctx, Config{Sizes: []int{6, 4, 2}, Momentum: 0.9, Batch: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Free()
	if dev.Allocated() != 0 {
		t.Fatalf("%d bytes leaked", dev.Allocated())
	}
}

func TestModelOnlyChargesTime(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	m, err := Build(ctx, Config{Sizes: []int{1024, 512, 10}, Batch: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dx, dy := dev.MustAlloc(1000, 1024), dev.MustAlloc(1000, 10)
	dev.CopyIn(dx, nil, 0)
	dev.CopyIn(dy, nil, 0)
	if loss := m.StepLabeled(dx, dy, 0.1); loss != 0 {
		t.Fatalf("model-only loss %g", loss)
	}
	if dev.Now() <= 0 {
		t.Fatal("no simulated time charged")
	}
}
