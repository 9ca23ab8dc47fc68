package convnet

import (
	"bytes"
	"math"
	"testing"

	"phideep/internal/blas"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func testCfg() Config {
	return Config{
		Side: 8, Filters1: 3, Kernel1: 3, Filters2: 4, Kernel2: 3,
		Pool: 2, Classes: 3, Lambda: 1e-3, Batch: 4, Seed: 1,
	}
}

func labeledImages(cfg Config, r *rng.RNG, n int) (*tensor.Matrix, *tensor.Matrix, []int) {
	x := tensor.NewMatrix(n, cfg.InputDim()).Randomize(r, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = r.Intn(cfg.Classes)
	}
	y := tensor.NewMatrix(n, cfg.Classes)
	kernels.OneHot(labels, y)
	return x, y, labels
}

func newModel(t *testing.T, ctx *blas.Context, cfg Config) *Model {
	t.Helper()
	m, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDeviceForwardMatchesReference drives the lowered device pipeline at
// every ladder level against the scalar direct-convolution reference. At
// Naive level the lowered GEMM sums taps in the same (ky, kx, c) order the
// reference does and every elementwise op is order-identical, so agreement
// is bitwise; blocked levels regroup the K loop and get a tolerance.
func TestDeviceForwardMatchesReference(t *testing.T) {
	cfg := testCfg()
	p := NewParams(cfg, 5)
	x, _, _ := labeledImages(cfg, rng.New(6), cfg.Batch)

	for _, lvl := range kernels.Levels {
		for _, improved := range []bool{false, true} {
			dev := device.New(sim.XeonPhi5110P(), true, nil)
			ctx := blas.NewContext(dev, lvl, 1)
			ctx.AutoFuse = improved
			ctx.AutoConcurrent = improved
			m := newModel(t, ctx, cfg)
			m.Upload(p)
			dx := dev.MustAlloc(cfg.Batch, cfg.InputDim())
			dev.CopyIn(dx, x, 0)
			m.Forward(dx)
			for i := 0; i < cfg.Batch; i++ {
				want := p.PredictProbs(cfg, x.RowView(i))
				got := m.Probs().Mat.RowView(i)
				for j := range want {
					diff := math.Abs(got[j] - want[j])
					if lvl == kernels.Naive && diff != 0 {
						t.Fatalf("level %v improved=%v row %d class %d: %g vs %g not bitwise", lvl, improved, i, j, got[j], want[j])
					}
					if diff > 1e-12 {
						t.Fatalf("level %v improved=%v row %d class %d: |%g-%g| = %g", lvl, improved, i, j, got[j], want[j], diff)
					}
				}
			}
			m.Free()
		}
	}
}

// TestGradientMatchesFiniteDifferences checks the device backward pass
// against central finite differences of the full objective (batch-mean
// cross-entropy plus the λ/2·Σ‖W‖² penalty) through the flat parameter
// view.
func TestGradientMatchesFiniteDifferences(t *testing.T) {
	cfg := testCfg()
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 2)
	m := newModel(t, ctx, cfg)
	defer m.Free()

	p := NewParams(cfg, 7)
	x, y, _ := labeledImages(cfg, rng.New(8), cfg.Batch)
	dx := dev.MustAlloc(cfg.Batch, cfg.InputDim())
	dy := dev.MustAlloc(cfg.Batch, cfg.Classes)
	dev.CopyIn(dx, x, 0)
	dev.CopyIn(dy, y, 0)

	objective := func() float64 {
		m.Upload(p)
		m.Forward(dx)
		loss := ctx.CrossEntropyOneHot(m.Probs(), dy) / float64(cfg.Batch)
		for _, w := range []*tensor.Matrix{p.Conv1.W, p.Conv2.W, p.W3} {
			loss += cfg.Lambda / 2 * w.SumSquares()
		}
		return loss
	}

	m.Upload(p)
	m.Forward(dx)
	m.Backward(dx, dy)
	analytic := make([]float64, 0)
	for _, g := range []*device.Buffer{m.GW[0], m.GB[0], m.GW[1], m.GB[1], m.GW[2], m.GB[2]} {
		analytic = append(analytic, g.Mat.Data...)
	}

	ps := p.ParamSet()
	theta := ps.Flatten(nil)
	if len(theta) != len(analytic) {
		t.Fatalf("flat views disagree: %d params, %d gradients", len(theta), len(analytic))
	}
	const h = 1e-6
	maxRel := 0.0
	for i := 0; i < len(theta); i += 7 {
		orig := theta[i]
		theta[i] = orig + h
		ps.Unflatten(theta)
		cp := objective()
		theta[i] = orig - h
		ps.Unflatten(theta)
		cm := objective()
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

// The ParamSet flat order must match the device gradient buffer order the
// finite-difference test concatenates: conv1.W, conv1.b, conv2.W, conv2.b,
// W3, b3.
func TestParamSetOrder(t *testing.T) {
	names := NewParams(testCfg(), 1).ParamSet().Names()
	want := []string{"conv1.W", "conv1.b", "conv2.W", "conv2.b", "W3", "b3"}
	if len(names) != len(want) {
		t.Fatalf("names %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names %v, want %v", names, want)
		}
	}
}

// TestTrainingLearnsDigits runs the supervised loop end-to-end through
// core.Trainer.RunLabeled on the synthetic digits and requires the
// cross-entropy to fall.
func TestTrainingLearnsDigits(t *testing.T) {
	cfg := Config{
		Side: 8, Filters1: 4, Kernel1: 3, Filters2: 6, Kernel2: 3,
		Pool: 2, Classes: 10, Lambda: 1e-5, Momentum: 0.5, Batch: 16, Seed: 2,
	}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 3)
	ctx.AutoFuse = true
	ctx.AutoConcurrent = true
	m := newModel(t, ctx, cfg)
	defer m.Free()

	src := data.NewDigits(cfg.Side, 256, 11, 0.05)
	tr := &core.Trainer{Dev: dev, Cfg: core.TrainConfig{Epochs: 30, LR: 0.7, Prefetch: true}}
	res, err := tr.RunLabeled(m, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Examples != 30*256 {
		t.Fatalf("consumed %d examples", res.Examples)
	}
	if !(res.FinalLoss < 0.7*res.FirstLoss) {
		t.Fatalf("cross-entropy did not fall: %g → %g", res.FirstLoss, res.FinalLoss)
	}
}

// TestStepDeterministicAcrossWorkers asserts the CHAOS split's determinism
// claim at model level: one full supervised step produces bitwise-identical
// parameters however many host workers execute the kernels.
func TestStepDeterministicAcrossWorkers(t *testing.T) {
	cfg := testCfg()
	cfg.Momentum = 0.5
	x, y, _ := labeledImages(cfg, rng.New(9), cfg.Batch)

	step := func(workers int) *Params {
		dev := device.New(sim.XeonPhi5110P(), true, parallel.NewPool(workers))
		ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
		m := newModel(t, ctx, cfg)
		defer m.Free()
		dx := dev.MustAlloc(cfg.Batch, cfg.InputDim())
		dy := dev.MustAlloc(cfg.Batch, cfg.Classes)
		dev.CopyIn(dx, x, 0)
		dev.CopyIn(dy, y, 0)
		for i := 0; i < 3; i++ {
			m.StepLabeled(dx, dy, 0.3)
		}
		return m.Download()
	}

	ref := step(1)
	for _, workers := range []int{2, 5} {
		got := step(workers)
		for _, pair := range [][2]*tensor.Matrix{
			{got.Conv1.W, ref.Conv1.W}, {got.Conv2.W, ref.Conv2.W}, {got.W3, ref.W3},
		} {
			if d := tensor.MaxAbsDiff(pair[0], pair[1]); d != 0 {
				t.Fatalf("workers=%d: weights differ by %g", workers, d)
			}
		}
	}
}

// TestCheckpointResume trains, snapshots mid-run, and requires the restored
// model to continue to bitwise-identical parameters.
func TestCheckpointResume(t *testing.T) {
	cfg := testCfg()
	x, y, _ := labeledImages(cfg, rng.New(13), cfg.Batch)

	run := func(m *Model, dev *device.Device, steps int) {
		dx := dev.MustAlloc(cfg.Batch, cfg.InputDim())
		dy := dev.MustAlloc(cfg.Batch, cfg.Classes)
		dev.CopyIn(dx, x, 0)
		dev.CopyIn(dy, y, 0)
		for i := 0; i < steps; i++ {
			m.StepLabeled(dx, dy, 0.4)
		}
	}

	devA := device.New(sim.XeonPhi5110P(), true, nil)
	mA := newModel(t, blas.NewContext(devA, kernels.ParallelBlocked, 3), cfg)
	run(mA, devA, 3)
	var snap bytes.Buffer
	if err := mA.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	run(mA, devA, 4)
	want := mA.Download()

	devB := device.New(sim.XeonPhi5110P(), true, nil)
	mB := newModel(t, blas.NewContext(devB, kernels.ParallelBlocked, 99), cfg)
	if err := mB.RestoreState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	run(mB, devB, 4)
	got := mB.Download()

	if d := tensor.MaxAbsDiff(got.Conv1.W, want.Conv1.W); d != 0 {
		t.Fatalf("conv1 weights diverged by %g after resume", d)
	}
	if d := tensor.MaxAbsDiff(got.W3, want.W3); d != 0 {
		t.Fatalf("head weights diverged by %g after resume", d)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	cfg := testCfg()
	p := NewParams(cfg, 21)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q := zeroParams(cfg)
	if err := q.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(p.Conv1.W, q.Conv1.W); d != 0 {
		t.Fatalf("conv1 diff %g", d)
	}
	if d := tensor.MaxAbsDiff(p.W3, q.W3); d != 0 {
		t.Fatalf("W3 diff %g", d)
	}
	// A checkpoint for different geometry must be rejected.
	other := cfg
	other.Filters1 = 5
	if err := zeroParams(other).Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("geometry mismatch must fail to load")
	}
}

// TestInference32MatchesReference bounds the float32 serving path against
// the float64 scalar reference: per-class probability error within the
// reduced-precision budget at every ladder level, and argmax agreement.
func TestInference32MatchesReference(t *testing.T) {
	cfg := testCfg()
	p := NewParams(cfg, 31)
	p32 := NewHostParams[float32](p)
	n := 5
	x, _, _ := labeledImages(cfg, rng.New(32), n)
	x32 := x.To32()

	for _, lvl := range kernels.Levels {
		inf := NewHostInference(nil, lvl, cfg, n, p32)
		probs := inf.Infer(x32)
		for i := 0; i < n; i++ {
			want := p.PredictProbs(cfg, x.RowView(i))
			got := probs.RowView(i)
			for j := range want {
				if d := math.Abs(float64(got[j]) - want[j]); d > 1e-4 {
					t.Fatalf("level %v row %d class %d: f32 %g vs f64 %g", lvl, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestInferPartialBatch checks that sliced-workspace inference on fewer
// rows than the model batch matches per-example reference outputs, for
// both precisions, and that the float64 host replica gives the device
// forward's bits.
func TestInferPartialBatch(t *testing.T) {
	cfg := testCfg()
	p := NewParams(cfg, 41)
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	m, err := NewInference(ctx, cfg, cfg.Batch, p)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()

	n := cfg.Batch - 1
	x, _, _ := labeledImages(cfg, rng.New(42), n)
	dx := dev.MustAlloc(n, cfg.InputDim())
	dev.CopyIn(dx, x, 0)
	out := m.Infer(dx)
	if out.Rows != n || out.Cols != cfg.Classes {
		t.Fatalf("inference output %dx%d", out.Rows, out.Cols)
	}
	for i := 0; i < n; i++ {
		want := p.PredictProbs(cfg, x.RowView(i))
		got := out.Mat.RowView(i)
		for j := range want {
			if d := math.Abs(got[j] - want[j]); d > 1e-12 {
				t.Fatalf("row %d class %d: %g vs %g", i, j, got[j], want[j])
			}
		}
	}

	host := NewHostInference(nil, kernels.ParallelBlocked, cfg, cfg.Batch, NewHostParams[float64](p)).Infer(x)
	for e, v := range out.Mat.Data[:n*cfg.Classes] {
		if host.Data[e] != v {
			t.Fatalf("host element %d = %v, device %v", e, host.Data[e], v)
		}
	}
	inf32 := NewHostInference(nil, kernels.ParallelBlocked, cfg, cfg.Batch, NewHostParams[float32](p))
	out32 := inf32.Infer(x.To32())
	if out32.Rows != n {
		t.Fatalf("f32 inference rows %d", out32.Rows)
	}
}

func TestInferenceModelRejectsTraining(t *testing.T) {
	cfg := testCfg()
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m, err := NewInference(blas.NewContext(dev, kernels.Naive, 1), cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyUpdate on an inference model must panic")
		}
	}()
	m.ApplyUpdate(0.1)
}

func TestConfigValidation(t *testing.T) {
	base := testCfg()
	mutate := func(f func(*Config)) Config {
		c := base
		f(&c)
		return c
	}
	for _, bad := range []Config{
		mutate(func(c *Config) { c.Side = 3 }),
		mutate(func(c *Config) { c.Filters1 = 0 }),
		mutate(func(c *Config) { c.Kernel1 = 4 }),
		mutate(func(c *Config) { c.Kernel2 = 0 }),
		mutate(func(c *Config) { c.Pool = 1 }),
		mutate(func(c *Config) { c.Pool = 3 }),              // 8 % 3 != 0
		mutate(func(c *Config) { c.Side = 12; c.Pool = 4 }), // 12/4=3 not divisible by 4
		mutate(func(c *Config) { c.Classes = 1 }),
		mutate(func(c *Config) { c.Lambda = -1 }),
		mutate(func(c *Config) { c.Momentum = 1 }),
		mutate(func(c *Config) { c.Batch = -1 }),
		mutate(func(c *Config) { c.Kernel2 = 5 }), // larger than 8/2=4 input
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v should fail validation", bad)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	zero := base
	zero.Batch = 0
	if _, err := Build(blas.NewContext(dev, kernels.Naive, 1), zero); err == nil {
		t.Error("zero batch must fail")
	}
}

func TestFreeReleasesAll(t *testing.T) {
	cfg := testCfg()
	cfg.Momentum = 0.9
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newModel(t, blas.NewContext(dev, kernels.Naive, 1), cfg)
	m.Free()
	if dev.Allocated() != 0 {
		t.Fatalf("%d bytes leaked", dev.Allocated())
	}
}

func TestModelOnlyChargesTime(t *testing.T) {
	cfg := Config{
		Side: 16, Filters1: 8, Kernel1: 5, Filters2: 16, Kernel2: 3,
		Pool: 2, Classes: 10, Batch: 64, Seed: 1,
	}
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	ctx := blas.NewContext(dev, kernels.ParallelBlocked, 1)
	m := newModel(t, ctx, cfg)
	defer m.Free()
	dx := dev.MustAlloc(cfg.Batch, cfg.InputDim())
	dy := dev.MustAlloc(cfg.Batch, cfg.Classes)
	dev.CopyIn(dx, nil, 0)
	dev.CopyIn(dy, nil, 0)
	if loss := m.StepLabeled(dx, dy, 0.1); loss != 0 {
		t.Fatalf("model-only loss %g", loss)
	}
	if dev.Now() <= 0 {
		t.Fatal("no simulated time charged")
	}
}
