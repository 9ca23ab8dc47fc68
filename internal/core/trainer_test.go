package core

import (
	"math"
	"strings"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func digitSource(n int) data.Source { return data.NewDigits(8, n, 3, 0.02) }

func newAE(t *testing.T, dev *device.Device, lvl OptLevel, batch int) *autoencoder.Model {
	t.Helper()
	ctx := NewContext(dev, lvl, 0, 1)
	m, err := autoencoder.Build(ctx, autoencoder.Config{Visible: 64, Hidden: 16, Lambda: 1e-5, Batch: batch, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunEpochsNumericTrains(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newAE(t, dev, Improved, 10)
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Epochs: 30, LR: 0.8, ChunkExamples: 50, BufferDepth: 2, Prefetch: true}}
	res, err := tr.Run(m, digitSource(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 30*10 {
		t.Fatalf("steps %d", res.Steps)
	}
	if res.Examples != 30*100 {
		t.Fatalf("examples %d", res.Examples)
	}
	if len(res.EpochLoss) != 30 {
		t.Fatalf("epoch losses %d", len(res.EpochLoss))
	}
	if !(res.EpochLoss[29] < res.EpochLoss[0]) {
		t.Fatalf("loss did not fall: %g → %g", res.EpochLoss[0], res.EpochLoss[29])
	}
	if !(res.FinalLoss < res.FirstLoss) {
		t.Fatalf("chunk losses did not fall: %g → %g", res.FirstLoss, res.FinalLoss)
	}
	if res.SimSeconds <= 0 {
		t.Fatal("no simulated time")
	}
	if res.Chunks != 60 { // 2 chunks per epoch × 30
		t.Fatalf("chunks %d", res.Chunks)
	}
}

func TestRunIterationsMode(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	m := newAE(t, dev, OpenMPMKL, 10)
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 37, LR: 0.1, ChunkExamples: 50}}
	res, err := tr.Run(m, data.Null{D: 64, N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 37 {
		t.Fatalf("steps %d", res.Steps)
	}
	if len(res.EpochLoss) != 0 {
		t.Fatal("iteration mode must not record epoch losses")
	}
	if !math.IsNaN(res.FinalLoss) {
		t.Fatal("model-only loss must be NaN")
	}
	// 37 steps of batch 10 → 370 examples → ceil(370/50) = 8 chunks.
	if res.Chunks != 8 {
		t.Fatalf("chunks %d", res.Chunks)
	}
}

func TestPrefetchOverlapsTransfers(t *testing.T) {
	run := func(prefetch bool, depth int) float64 {
		dev := device.New(sim.XeonPhi5110P(), false, nil)
		m := newAE(t, dev, OpenMPMKL, 100)
		tr := &Trainer{Dev: dev, Cfg: TrainConfig{
			Iterations: 100, LR: 0.1, ChunkExamples: 1000,
			BufferDepth: depth, Prefetch: prefetch,
		}}
		res, err := tr.Run(m, data.Null{D: 64, N: 10000})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimSeconds
	}
	sync := run(false, 2)
	pipelined := run(true, 2)
	if !(pipelined < sync) {
		t.Fatalf("prefetch did not help: %g vs %g", pipelined, sync)
	}
	single := run(true, 1)
	if !(pipelined < single) {
		t.Fatalf("double buffering no better than single: %g vs %g", pipelined, single)
	}
}

func TestLRScheduleIsApplied(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newAE(t, dev, Improved, 10)
	before := m.Download().W1.Clone()
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{
		Iterations: 5, Schedule: func(step int) float64 { return 0 }, LR: 1,
	}}
	if _, err := tr.Run(m, digitSource(100)); err != nil {
		t.Fatal(err)
	}
	after := m.Download().W1
	if tensor.MaxAbsDiff(before, after) != 0 {
		t.Fatal("zero-LR schedule still changed weights")
	}
}

func TestRunValidation(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	m := newAE(t, dev, OpenMPMKL, 10)
	cases := []struct {
		name string
		cfg  TrainConfig
		src  data.Source
		want string
	}{
		{"no duration", TrainConfig{LR: 1}, data.Null{D: 64, N: 100}, "neither"},
		{"both durations", TrainConfig{Epochs: 1, Iterations: 1, LR: 1}, data.Null{D: 64, N: 100}, "mutually exclusive"},
		{"bad chunk", TrainConfig{Epochs: 1, LR: 1, ChunkExamples: 15}, data.Null{D: 64, N: 100}, "multiple"},
		{"dim mismatch", TrainConfig{Epochs: 1, LR: 1}, data.Null{D: 32, N: 100}, "dim"},
		{"tiny source", TrainConfig{Epochs: 1, LR: 1}, data.Null{D: 64, N: 5}, "smaller than one batch"},
		{"zero lr", TrainConfig{Epochs: 1}, data.Null{D: 64, N: 100}, "learning rate"},
	}
	for _, c := range cases {
		tr := &Trainer{Dev: dev, Cfg: c.cfg}
		_, err := tr.Run(m, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestChunkRingFreedAfterRun(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	m := newAE(t, dev, OpenMPMKL, 10)
	before := dev.Allocated()
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 3, LR: 0.1}}
	if _, err := tr.Run(m, data.Null{D: 64, N: 100}); err != nil {
		t.Fatal(err)
	}
	if dev.Allocated() != before {
		t.Fatalf("chunk ring leaked: %d → %d", before, dev.Allocated())
	}
}

func TestOptLevelMapping(t *testing.T) {
	if Baseline.KernelLevel().IsParallel() {
		t.Fatal("baseline must be sequential")
	}
	if !OpenMP.KernelLevel().IsParallel() || OpenMP.KernelLevel().IsBlocked() {
		t.Fatal("OpenMP must be parallel scalar")
	}
	if !OpenMPMKL.KernelLevel().IsBlocked() {
		t.Fatal("MKL must be blocked")
	}
	dev := device.New(sim.XeonPhi5110P(), false, nil)
	for _, lvl := range OptLevels {
		if lvl.String() == "" {
			t.Fatal("empty level name")
		}
		ctx := NewContext(dev, lvl, 30, 1)
		if ctx.Cores != 30 {
			t.Fatal("core limit dropped")
		}
		if (lvl == Improved) != ctx.AutoFuse || (lvl == Improved) != ctx.AutoConcurrent {
			t.Fatalf("level %v fusion flags wrong", lvl)
		}
	}
	if OptLevel(9).String() != "OptLevel(9)" {
		t.Fatal("unknown level formatting")
	}
}

func TestLadderTimesMonotone(t *testing.T) {
	// The whole point of Table I: each optimization step must make the
	// same training run faster on the simulated Phi — at Table I's
	// workload scale (batch 10000, 1024-wide layers). At much smaller
	// sizes the MKL step can legitimately fail to pay off (Fig. 7's
	// small-network regime), so this test uses the paper's geometry.
	times := make([]float64, 0, len(OptLevels))
	for _, lvl := range OptLevels {
		dev := device.New(sim.XeonPhi5110P(), false, nil)
		ctx := NewContext(dev, lvl, 0, 1)
		m, err := autoencoder.Build(ctx, autoencoder.Config{Visible: 1024, Hidden: 512, Batch: 10000, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 10, LR: 0.1, ChunkExamples: 10000, Prefetch: true}}
		res, err := tr.Run(m, data.Null{D: 1024, N: 100000})
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, res.SimSeconds)
	}
	for i := 1; i < len(times); i++ {
		if !(times[i] < times[i-1]) {
			t.Fatalf("ladder not monotone at %v: %v", OptLevels[i], times)
		}
	}
	if times[0]/times[len(times)-1] < 20 {
		t.Fatalf("full ladder speedup only %g", times[0]/times[len(times)-1])
	}
}

func TestDeterministicSimTimes(t *testing.T) {
	run := func() float64 {
		dev := device.New(sim.XeonPhi5110P(), false, nil)
		m := newAE(t, dev, Improved, 10)
		tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 20, LR: 0.1, Prefetch: true}}
		res, err := tr.Run(m, data.Null{D: 64, N: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimSeconds
	}
	if run() != run() {
		t.Fatal("simulated time not reproducible")
	}
	_ = rng.New(0) // keep the import for clarity of intent
}
