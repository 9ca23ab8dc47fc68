package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"phideep/internal/convnet"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// trainerFeed builds a single-consumer feed over src with the given
// geometry and an unbounded horizon.
func trainerFeed(t *testing.T, src data.Source, batch, chunk int) (*feed.Feed, *feed.Consumer) {
	t.Helper()
	p, err := data.PlanChunks(data.PlanRequest{SourceLen: src.Len(), Batch: batch, ChunkExamples: chunk})
	if err != nil {
		t.Fatal(err)
	}
	var f *feed.Feed
	if l, ok := src.(data.Labeled); ok {
		f, err = feed.NewLabeled(l, feed.Config{Plan: p, Ledger: true})
	} else {
		f, err = feed.New(src, feed.Config{Plan: p, Ledger: true})
	}
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.Subscribe("trainer")
	if err != nil {
		t.Fatal(err)
	}
	return f, c
}

func sameLoss(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// requireSameResult asserts the deterministic fields of two runs agree
// bit-for-bit (wall-clock fields excluded, obviously).
func requireSameResult(t *testing.T, plain, fed *Result) {
	t.Helper()
	if plain.SimSeconds != fed.SimSeconds {
		t.Fatalf("SimSeconds %v vs %v", plain.SimSeconds, fed.SimSeconds)
	}
	if plain.Steps != fed.Steps || plain.Examples != fed.Examples || plain.Chunks != fed.Chunks {
		t.Fatalf("counters: plain %d/%d/%d, fed %d/%d/%d",
			plain.Steps, plain.Examples, plain.Chunks, fed.Steps, fed.Examples, fed.Chunks)
	}
	if !sameLoss(plain.FirstLoss, fed.FirstLoss) || !sameLoss(plain.FinalLoss, fed.FinalLoss) {
		t.Fatalf("losses: plain %v→%v, fed %v→%v", plain.FirstLoss, plain.FinalLoss, fed.FirstLoss, fed.FinalLoss)
	}
	if len(plain.EpochLoss) != len(fed.EpochLoss) {
		t.Fatalf("epoch losses %d vs %d", len(plain.EpochLoss), len(fed.EpochLoss))
	}
	for i := range plain.EpochLoss {
		if !sameLoss(plain.EpochLoss[i], fed.EpochLoss[i]) {
			t.Fatalf("epoch %d loss %v vs %v", i, plain.EpochLoss[i], fed.EpochLoss[i])
		}
	}
	if plain.SkippedChunks != fed.SkippedChunks {
		t.Fatalf("skips %d vs %d", plain.SkippedChunks, fed.SkippedChunks)
	}
}

// TestFeedRunBitIdentical is the tentpole's acceptance gate for Run: the
// feed-backed trainer must reproduce the classic path bit-for-bit at a
// fixed seed — same simulated time, same losses, same final weights.
func TestFeedRunBitIdentical(t *testing.T) {
	src := digitSource(100)
	run := func(useFeed bool) (*Result, *tensor.Matrix, feed.Stats) {
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		m := newAE(t, dev, Improved, 10)
		cfg := TrainConfig{Epochs: 12, LR: 0.8, ChunkExamples: 30, BufferDepth: 2, Prefetch: true}
		var f *feed.Feed
		if useFeed {
			var c *feed.Consumer
			f, c = trainerFeed(t, src, 10, 30)
			cfg.Feed = c
			cfg.ChunkExamples = 0 // geometry comes from the plan
		}
		tr := &Trainer{Dev: dev, Cfg: cfg}
		res, err := tr.Run(m, src)
		if err != nil {
			t.Fatal(err)
		}
		var fs feed.Stats
		if f != nil {
			fs = f.Stats()
		}
		return res, m.Download().W1, fs
	}
	plain, wPlain, _ := run(false)
	fed, wFed, fs := run(true)
	requireSameResult(t, plain, fed)
	if tensor.MaxAbsDiff(wPlain, wFed) != 0 {
		t.Fatal("final weights diverge between plain and feed-backed runs")
	}
	// Every chunk was leased and committed; nothing left outstanding.
	if fs.Leases != fed.Chunks || fs.Commits != fed.Chunks || fs.Outstanding != 0 {
		t.Fatalf("feed stats %+v for %d chunks", fs, fed.Chunks)
	}
}

// TestFeedRunLabeledBitIdentical is the same gate for the supervised path,
// where one-hot label chunks ride the feed too.
func TestFeedRunLabeledBitIdentical(t *testing.T) {
	src := data.NewDigits(8, 120, 5, 0.02)
	ccfg := convnet.Config{
		Side: 8, Filters1: 3, Kernel1: 3, Filters2: 4, Kernel2: 3,
		Pool: 2, Classes: 10, Lambda: 1e-5, Batch: 12, Seed: 3,
	}
	run := func(useFeed bool) (*Result, *convnet.Params) {
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		m, err := convnet.Build(NewContext(dev, Improved, 0, 1), ccfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Free()
		cfg := TrainConfig{Epochs: 4, LR: 0.5, ChunkExamples: 24, Prefetch: true}
		if useFeed {
			_, c := trainerFeed(t, src, 12, 24)
			cfg.Feed = c
			cfg.ChunkExamples = 0
		}
		tr := &Trainer{Dev: dev, Cfg: cfg}
		res, err := tr.RunLabeled(m, src)
		if err != nil {
			t.Fatal(err)
		}
		return res, m.Download()
	}
	plain, pPlain := run(false)
	fed, pFed := run(true)
	requireSameResult(t, plain, fed)
	if tensor.MaxAbsDiff(pPlain.W3, pFed.W3) != 0 {
		t.Fatal("head weights diverge between plain and feed-backed runs")
	}
}

// TestFeedRunResume resumes a feed-backed run from a checkpoint: the
// consumer seeks to the checkpointed chunk and the stitched run matches
// the uninterrupted one bit-for-bit.
func TestFeedRunResume(t *testing.T) {
	src := digitSource(100)
	full := func() *tensor.Matrix {
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		m := newAE(t, dev, Improved, 10)
		_, c := trainerFeed(t, src, 10, 30)
		tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 30, LR: 0.8, Feed: c, Prefetch: true}}
		if _, err := tr.Run(m, src); err != nil {
			t.Fatal(err)
		}
		return m.Download().W1
	}()

	ckpt := filepath.Join(t.TempDir(), "feed.phck")
	{
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		m := newAE(t, dev, Improved, 10)
		_, c := trainerFeed(t, src, 10, 30)
		// 15 steps = 5 chunks of 3 batches: ends exactly at a chunk
		// boundary, so the last checkpoint covers everything trained.
		tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 15, LR: 0.8, Feed: c, Prefetch: true, CheckpointPath: ckpt}}
		if _, err := tr.Run(m, src); err != nil {
			t.Fatal(err)
		}
	}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newAE(t, dev, Improved, 10)
	f, c := trainerFeed(t, src, 10, 30)
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 30, LR: 0.8, Feed: c, Prefetch: true, ResumePath: ckpt}}
	res, err := tr.Run(m, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("run did not resume")
	}
	if tensor.MaxAbsDiff(full, m.Download().W1) != 0 {
		t.Fatal("resumed feed-backed run diverges from uninterrupted run")
	}
	// The fresh consumer was seeked to the checkpointed chunk cursor.
	if s := f.Stats(); s.Seeks != 1 {
		t.Fatalf("feed stats %+v, want one seek", s)
	}
}

// TestFeedRunHorizon: a feed whose TotalChunks horizon is shorter than the
// configured run ends it early instead of erroring.
func TestFeedRunHorizon(t *testing.T) {
	src := digitSource(100)
	p, err := data.PlanChunks(data.PlanRequest{SourceLen: 100, Batch: 10, ChunkExamples: 30})
	if err != nil {
		t.Fatal(err)
	}
	f, err := feed.New(src, feed.Config{Plan: p, TotalChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := f.Subscribe("trainer")
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newAE(t, dev, Improved, 10)
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Iterations: 30, LR: 0.8, Feed: c}}
	res, err := tr.Run(m, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 4 || res.Steps != 12 {
		t.Fatalf("horizon run: %d chunks, %d steps", res.Chunks, res.Steps)
	}
}

func TestFeedRunValidation(t *testing.T) {
	src := digitSource(100)
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newAE(t, dev, Improved, 10)

	// Plan over a different source length.
	other := data.Null{D: 64, N: 60}
	_, c := trainerFeed(t, other, 10, 30)
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Epochs: 1, LR: 0.5, Feed: c}}
	if _, err := tr.Run(m, src); err == nil || !strings.Contains(err.Error(), "plan covers") {
		t.Fatalf("mismatched plan: %v", err)
	}
	// Plan batch disagrees with the model.
	_, c = trainerFeed(t, src, 20, 40)
	tr = &Trainer{Dev: dev, Cfg: TrainConfig{Epochs: 1, LR: 0.5, Feed: c}}
	if _, err := tr.Run(m, src); err == nil || !strings.Contains(err.Error(), "batch") {
		t.Fatalf("mismatched batch: %v", err)
	}
	// Conflicting explicit ChunkExamples.
	_, c = trainerFeed(t, src, 10, 30)
	tr = &Trainer{Dev: dev, Cfg: TrainConfig{Epochs: 1, LR: 0.5, Feed: c, ChunkExamples: 50}}
	if _, err := tr.Run(m, src); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("conflicting chunk size: %v", err)
	}
	// A lease window (default 2) narrower than the ring is refused before
	// any step, not when the third slot's lease bounces mid-run.
	before := m.Download().W1
	_, c = trainerFeed(t, src, 10, 30)
	tr = &Trainer{Dev: dev, Cfg: TrainConfig{Epochs: 1, LR: 0.5, Feed: c, BufferDepth: 3}}
	if _, err := tr.Run(m, src); err == nil || !strings.Contains(err.Error(), "BufferDepth") {
		t.Fatalf("window narrower than the ring: %v", err)
	}
	if tensor.MaxAbsDiff(before, m.Download().W1) != 0 {
		t.Fatal("weights moved before the window was rejected")
	}
}
