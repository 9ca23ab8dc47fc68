package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/rbm"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func newRBM(t *testing.T, dev *device.Device, batch int) *rbm.Model {
	t.Helper()
	ctx := NewContext(dev, Improved, 0, 1)
	m, err := rbm.Build(ctx, rbm.Config{Visible: 64, Hidden: 16, SampleHidden: true, Batch: batch, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFaultInjectedRunBitIdenticalAndSlower is the tentpole acceptance
// criterion: with transient faults whose retries all succeed, the numeric
// result is bit-identical to the clean run while the simulated clock shows
// the real cost of the flaky link.
func TestFaultInjectedRunBitIdenticalAndSlower(t *testing.T) {
	train := func(faulty bool) (*Result, *rbm.Params, device.Stats) {
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		if faulty {
			if err := dev.EnableFaults(device.FaultConfig{Rate: 0.4, Seed: 11, MaxRetries: 200}); err != nil {
				t.Fatal(err)
			}
		}
		m := newRBM(t, dev, 10)
		tr := &Trainer{Dev: dev, Cfg: TrainConfig{Epochs: 3, LR: 0.2, ChunkExamples: 50, Prefetch: true}}
		res, err := tr.Run(m, digitSource(100))
		if err != nil {
			t.Fatal(err)
		}
		return res, m.Download(), dev.Stats()
	}
	clean, cleanParams, _ := train(false)
	faulty, faultyParams, st := train(true)
	if st.FaultsTransient == 0 || st.Retries == 0 {
		t.Fatalf("fault model did not fire: %+v", st)
	}
	if st.FailedTransfers != 0 {
		t.Fatalf("retries did not all succeed: %+v", st)
	}
	if tensor.MaxAbsDiff(cleanParams.W, faultyParams.W) != 0 ||
		tensor.MaxAbsDiff(cleanParams.B.AsRow(), faultyParams.B.AsRow()) != 0 ||
		tensor.MaxAbsDiff(cleanParams.C.AsRow(), faultyParams.C.AsRow()) != 0 {
		t.Fatal("fault-injected run changed the numerics")
	}
	if faulty.FinalLoss != clean.FinalLoss {
		t.Fatalf("final loss diverged: %g vs %g", faulty.FinalLoss, clean.FinalLoss)
	}
	if !(faulty.SimSeconds > clean.SimSeconds) {
		t.Fatalf("faulty run not slower: %g vs clean %g", faulty.SimSeconds, clean.SimSeconds)
	}
	if st.BackoffSeconds <= 0 {
		t.Fatal("no backoff charged to the simulated clock")
	}
}

// TestKillAndResumeMatchesUninterrupted is the second acceptance criterion:
// a run killed at step k and resumed from its checkpoint reaches exactly
// the same final loss and parameters as the uninterrupted run. The RBM
// samples its hidden units, so this also proves the RNG stream is restored.
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	src := digitSource(100)
	const totalSteps = 40 // batch 10, chunk 50 → 8 chunks of 5 steps

	full := func() (*Result, *rbm.Params) {
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		m := newRBM(t, dev, 10)
		tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: totalSteps, LR: 0.2, ChunkExamples: 50, Prefetch: true}}
		res, err := tr.Run(m, src)
		if err != nil {
			t.Fatal(err)
		}
		return res, m.Download()
	}
	wantRes, wantParams := full()

	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	// "Kill" at step 15: train only 15 steps, checkpointing every chunk.
	{
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		m := newRBM(t, dev, 10)
		tr := &Trainer{Dev: dev, Cfg: TrainConfig{
			Iterations: 15, LR: 0.2, ChunkExamples: 50, Prefetch: true,
			CheckpointPath: ckpt,
		}}
		res, err := tr.Run(m, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checkpoints == 0 {
			t.Fatal("no checkpoints written")
		}
	}
	// Resume in a fresh process (fresh device, fresh model) and run to the
	// original target.
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newRBM(t, dev, 10)
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{
		Iterations: totalSteps, LR: 0.2, ChunkExamples: 50, Prefetch: true,
		ResumePath: ckpt,
	}}
	res, err := tr.Run(m, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("run not marked resumed")
	}
	if res.Steps != wantRes.Steps || res.Examples != wantRes.Examples {
		t.Fatalf("cursor mismatch: steps %d/%d examples %d/%d",
			res.Steps, wantRes.Steps, res.Examples, wantRes.Examples)
	}
	if res.FinalLoss != wantRes.FinalLoss {
		t.Fatalf("final loss %g, uninterrupted %g", res.FinalLoss, wantRes.FinalLoss)
	}
	if res.FirstLoss != wantRes.FirstLoss {
		t.Fatalf("first loss %g, uninterrupted %g", res.FirstLoss, wantRes.FirstLoss)
	}
	got := m.Download()
	if tensor.MaxAbsDiff(wantParams.W, got.W) != 0 ||
		tensor.MaxAbsDiff(wantParams.B.AsRow(), got.B.AsRow()) != 0 ||
		tensor.MaxAbsDiff(wantParams.C.AsRow(), got.C.AsRow()) != 0 {
		t.Fatal("resumed run diverged from the uninterrupted one")
	}
}

func TestResumeRestoresEpochAccounting(t *testing.T) {
	// Epoch-mode resume: the restored epoch-loss accumulators must yield
	// the same EpochLoss history as the uninterrupted run. Both phases use
	// epoch mode; the kill point is the end of epoch 2 of 5.
	src := digitSource(100)
	run := func(epochs int, ckptPath, resumePath string) *Result {
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		m := newAE(t, dev, Improved, 10)
		tr := &Trainer{Dev: dev, Cfg: TrainConfig{
			Epochs: epochs, LR: 0.5, ChunkExamples: 50, Prefetch: true,
			CheckpointPath: ckptPath, ResumePath: resumePath,
		}}
		res, err := tr.Run(m, src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(5, "", "")
	ckpt := filepath.Join(t.TempDir(), "epoch.ckpt")
	run(2, ckpt, "")
	got := run(5, "", ckpt)
	if len(got.EpochLoss) != len(want.EpochLoss) {
		t.Fatalf("epoch losses %d, want %d", len(got.EpochLoss), len(want.EpochLoss))
	}
	for i := range want.EpochLoss {
		if got.EpochLoss[i] != want.EpochLoss[i] {
			t.Fatalf("epoch %d loss %g, want %g", i, got.EpochLoss[i], want.EpochLoss[i])
		}
	}
}

func TestGracefulDegradationSkipsChunks(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newAE(t, dev, Improved, 10)
	// Every transfer faults transiently and the budget is tiny, so every
	// chunk transfer is abandoned; the run must still complete, training
	// on stale (initially zero) chunk data, and account the skips. Faults
	// go live only after the model upload so construction succeeds.
	if err := dev.EnableFaults(device.FaultConfig{Rate: 0.999999, MaxRetries: 1, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 20, LR: 0.5, ChunkExamples: 50, Prefetch: true}}
	res, err := tr.Run(m, digitSource(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 20 {
		t.Fatalf("steps %d", res.Steps)
	}
	if res.SkippedChunks != res.Chunks || res.SkippedChunks == 0 {
		t.Fatalf("skipped %d of %d chunks", res.SkippedChunks, res.Chunks)
	}
	if res.Device.FailedTransfers == 0 {
		t.Fatal("device did not record failed transfers")
	}
	if math.IsNaN(res.FinalLoss) {
		t.Fatal("no loss computed")
	}
}

func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	c := &Checkpoint{
		Step: 7, Chunk: 2, Examples: 70, Skipped: 1,
		FirstLoss: 0.5, EpochLossSum: 1.25, EpochLossN: 3,
		EpochLoss: []float64{0.9, 0.7}, Model: []byte("model-blob"),
	}
	if err := WriteCheckpoint(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != c.Step || got.Chunk != c.Chunk || got.Examples != c.Examples ||
		got.Skipped != c.Skipped || got.FirstLoss != c.FirstLoss ||
		got.EpochLossSum != c.EpochLossSum || got.EpochLossN != c.EpochLossN ||
		len(got.EpochLoss) != 2 || got.EpochLoss[1] != 0.7 || string(got.Model) != "model-blob" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// No temp litter after a successful atomic rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
	// A flipped byte must be detected.
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	// Truncation must be detected, not panic.
	if err := os.WriteFile(path, data[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestCheckpointValidation(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newAE(t, dev, Improved, 10)
	// Missing resume file.
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 5, LR: 0.1, ResumePath: "/nonexistent/x.ckpt"}}
	if _, err := tr.Run(m, digitSource(100)); err == nil {
		t.Fatal("missing resume file accepted")
	}
	// Negative cadence.
	tr = &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 5, LR: 0.1, CheckpointPath: "x", CheckpointEvery: -1}}
	if _, err := tr.Run(m, digitSource(100)); err == nil {
		t.Fatal("negative cadence accepted")
	}
	// A checkpoint whose cursor is past the requested run must be refused.
	ckpt := filepath.Join(t.TempDir(), "far.ckpt")
	{
		d2 := device.New(sim.XeonPhi5110P(), true, nil)
		m2 := newAE(t, d2, Improved, 10)
		tr2 := &Trainer{Dev: d2, Cfg: TrainConfig{Iterations: 30, LR: 0.1, ChunkExamples: 50, CheckpointPath: ckpt}}
		if _, err := tr2.Run(m2, digitSource(100)); err != nil {
			t.Fatal(err)
		}
	}
	tr = &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 5, LR: 0.1, ChunkExamples: 50, ResumePath: ckpt}}
	if _, err := tr.Run(m, digitSource(100)); err == nil {
		t.Fatal("overshooting checkpoint accepted")
	}
}

// TestEpochChunkAccountingWithWraparound covers the satellite: when
// src.Len() is not a multiple of ChunkExamples, chunk windows wrap across
// epoch boundaries; the step, example and epoch-loss accounting must stay
// exact.
func TestEpochChunkAccountingWithWraparound(t *testing.T) {
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newAE(t, dev, Improved, 10)
	// 130 examples, chunks of 40: chunk starts 0,40,80,120→wrap,30,70,…
	src := data.NewDigits(8, 130, 3, 0.02)
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Epochs: 4, LR: 0.5, ChunkExamples: 40, Prefetch: true}}
	res, err := tr.Run(m, src)
	if err != nil {
		t.Fatal(err)
	}
	stepsPerEpoch := 13 // 130 / batch 10
	if res.Steps != 4*stepsPerEpoch {
		t.Fatalf("steps %d, want %d", res.Steps, 4*stepsPerEpoch)
	}
	if res.Examples != 4*stepsPerEpoch*10 {
		t.Fatalf("examples %d, want %d", res.Examples, 4*stepsPerEpoch*10)
	}
	if len(res.EpochLoss) != 4 {
		t.Fatalf("epoch losses %d, want 4", len(res.EpochLoss))
	}
	if len(res.EpochWallSeconds) != 4 {
		t.Fatalf("epoch wall seconds %d, want 4", len(res.EpochWallSeconds))
	}
	// 52 steps of 10 examples = 520 examples → ceil(520/40) = 13 chunks.
	if res.Chunks != 13 {
		t.Fatalf("chunks %d, want 13", res.Chunks)
	}
	for i, l := range res.EpochLoss {
		if math.IsNaN(l) {
			t.Fatalf("epoch %d loss NaN", i)
		}
	}
}
