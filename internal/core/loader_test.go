package core

import (
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// drainClock wraps a model and notes the device's compute horizon after
// every step: after a chunk's last step it is the simulated time compute
// drained the chunk's ring slot, which is what the chunk's commit carries.
type drainClock struct {
	Trainable
	dev   *device.Device
	after []float64
}

func (m *drainClock) Step(x *device.Buffer, lr float64) float64 {
	loss := m.Trainable.Step(x, lr)
	m.after = append(m.after, m.dev.ComputeBusyUntil())
	return loss
}

// TestTrainerLedgerExact pins the feed ledger of a training run event for
// event: the subscribe, then per chunk k the commit of chunk k-depth (its
// slot's previous occupant) and the lease of chunk k, and at the end the
// still-leased slots committed in slot order. Each commit's At is the
// compute horizon after the chunk's last step. It covers ring depths 1–3, a
// whole-epoch run, a run cut short by the feed's TotalChunks horizon (whose
// refused lease still commits the slot first), and an Iterations run that
// ends mid-chunk.
func TestTrainerLedgerExact(t *testing.T) {
	const batch, chunk = 10, 30
	bpc := chunk / batch
	cases := []struct {
		name        string
		srcLen      int
		cfg         TrainConfig
		totalChunks int // the feed's horizon; 0 is unbounded
		chunks      int // chunks the run leases
		steps       int
	}{
		{"epochs", 90, TrainConfig{Epochs: 2}, 0, 6, 18},
		{"horizon", 100, TrainConfig{Iterations: 30}, 4, 4, 12},
		{"mid-chunk", 100, TrainConfig{Iterations: 14}, 0, 5, 14},
	}
	for _, tc := range cases {
		for depth := 1; depth <= 3; depth++ {
			src := digitSource(tc.srcLen)
			p, err := data.PlanChunks(data.PlanRequest{SourceLen: tc.srcLen, Batch: batch, ChunkExamples: chunk})
			if err != nil {
				t.Fatal(err)
			}
			f, err := feed.New(src, feed.Config{Plan: p, TotalChunks: tc.totalChunks, Window: depth, Ledger: true})
			if err != nil {
				t.Fatal(err)
			}
			c, err := f.Subscribe("trainer")
			if err != nil {
				t.Fatal(err)
			}
			dev := device.New(sim.XeonPhi5110P(), true, nil)
			m := &drainClock{Trainable: newAE(t, dev, Improved, batch), dev: dev}
			cfg := tc.cfg
			cfg.LR, cfg.BufferDepth, cfg.Prefetch, cfg.Feed = 0.5, depth, true, c
			res, err := (&Trainer{Dev: dev, Cfg: cfg}).Run(m, src)
			if err != nil {
				t.Fatalf("%s depth %d: %v", tc.name, depth, err)
			}
			if res.Chunks != tc.chunks || res.Steps != tc.steps {
				t.Fatalf("%s depth %d: %d chunks, %d steps", tc.name, depth, res.Chunks, res.Steps)
			}

			at := func(k int) float64 { return m.after[min((k+1)*bpc, tc.steps)-1] }
			commit := func(k int) feed.Event { return feed.Event{Kind: feed.EvCommit, Seq: k, At: at(k)} }
			want := []feed.Event{{Kind: feed.EvSubscribe}}
			committed := -1 // chunks [0, committed] have committed
			for k := 0; k <= tc.chunks; k++ {
				// A run that ends at its own step count never asks for
				// chunk n; one the horizon ends does, and is refused.
				if k == tc.chunks && tc.totalChunks == 0 {
					break
				}
				if k >= depth {
					want = append(want, commit(k-depth))
					committed = k - depth
				}
				if k < tc.chunks {
					want = append(want, feed.Event{Kind: feed.EvLease, Seq: k, Start: k * chunk % tc.srcLen, N: chunk})
				}
			}
			for s := 0; s < depth; s++ {
				last := tc.chunks - 1 - (tc.chunks-1-s)%depth // newest chunk in slot s
				if last > committed && last >= 0 && last%depth == s {
					want = append(want, commit(last))
				}
			}
			if got := f.Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s depth %d: ledger\n got %+v\nwant %+v", tc.name, depth, got, want)
			}
		}
	}
}

// blockingChunkSource holds the fill of the chunk starting at block until
// the model's first step has returned.
type blockingChunkSource struct {
	data.Source
	block   int
	entered chan struct{} // closed when that fill starts
	stepped chan struct{} // closed when the first step returns
}

func (s *blockingChunkSource) Chunk(start, n int, dst *tensor.Matrix) {
	if start == s.block {
		close(s.entered)
		select {
		case <-s.stepped:
		case <-time.After(5 * time.Second):
		}
	}
	s.Source.Chunk(start, n, dst)
}

// firstStepWaits is a model whose first step waits for chunk 1's fill to
// have started, then signals it may finish once the step has returned.
type firstStepWaits struct {
	Trainable
	src     *blockingChunkSource
	steps   int
	overlap bool
}

func (m *firstStepWaits) Step(x *device.Buffer, lr float64) float64 {
	m.steps++
	if m.steps != 1 {
		return m.Trainable.Step(x, lr)
	}
	select {
	case <-m.src.entered:
		m.overlap = true
	case <-time.After(5 * time.Second):
	}
	loss := m.Trainable.Step(x, lr)
	close(m.src.stepped)
	return loss
}

// TestTrainerFillOverlapsStep: with a double-buffered ring, chunk 1 is
// filled on the loading thread while chunk 0 trains — its fill is under
// way during the first step and cannot finish until that step has
// returned. A trainer that fills on its own goroutine between chunks would
// hold the first step waiting for a fill that never starts.
func TestTrainerFillOverlapsStep(t *testing.T) {
	for _, useFeed := range []bool{false, true} {
		src := &blockingChunkSource{Source: digitSource(100), block: 30,
			entered: make(chan struct{}), stepped: make(chan struct{})}
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		m := &firstStepWaits{Trainable: newAE(t, dev, Improved, 10), src: src}
		cfg := TrainConfig{Iterations: 9, LR: 0.5, ChunkExamples: 30, BufferDepth: 2, Prefetch: true}
		if useFeed {
			_, cfg.Feed = trainerFeed(t, src, 10, 30)
			cfg.ChunkExamples = 0
		}
		res, err := (&Trainer{Dev: dev, Cfg: cfg}).Run(m, src)
		if err != nil {
			t.Fatal(err)
		}
		if !m.overlap {
			t.Fatalf("feed %v: chunk 1's fill never started while the first step ran", useFeed)
		}
		if res.Steps != 9 || res.Chunks != 3 {
			t.Fatalf("feed %v: %d steps, %d chunks", useFeed, res.Steps, res.Chunks)
		}
	}
}

// stubModel trains nothing; it lets the failure paths run on a numeric
// device at no cost, supervised or not, with checkpointing.
type stubModel struct{ batch, dim, classes int }

func (m stubModel) Step(*device.Buffer, float64) float64               { return 1 }
func (m stubModel) StepLabeled(_, _ *device.Buffer, _ float64) float64 { return 1 }
func (m stubModel) BatchSize() int                                     { return m.batch }
func (m stubModel) InputDim() int                                      { return m.dim }
func (m stubModel) OutputDim() int                                     { return m.classes }
func (m stubModel) SaveState(io.Writer) error                          { return nil }
func (m stubModel) RestoreState(io.Reader) error                       { return nil }

// panicAt panics for any chunk reaching example from or beyond.
type panicAt struct {
	data.Labeled
	from int
}

func (s panicAt) Chunk(start, n int, dst *tensor.Matrix) {
	if start+n > s.from {
		panic("backing store gone")
	}
	s.Labeled.Chunk(start, n, dst)
}

// badLabels labels examples from bad on as class 10 of 10.
type badLabels struct {
	data.Labeled
	bad int
}

func (s badLabels) Label(idx int) int {
	if idx >= s.bad {
		return 10
	}
	return s.Labeled.Label(idx)
}

// settledGoroutines polls until the goroutine count is back at or below
// want (exiting goroutines take a moment to be reaped) and returns the last
// count seen.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestTrainerLoaderFailures: a source that panics on the loading thread, a
// label out of range found mid-run, and a checkpoint that cannot be written
// while the next chunk is filling each make Run return an error — never a
// panic on the caller — and leave no goroutine behind, on the index and the
// feed path alike.
func TestTrainerLoaderFailures(t *testing.T) {
	digits := data.NewDigits(8, 100, 3, 0.02)
	m := stubModel{batch: 10, dim: digits.Dim(), classes: 10}
	cases := []struct {
		name    string
		src     data.Labeled
		cfg     TrainConfig
		labeled bool
		want    string
	}{
		{"panic", panicAt{digits, 60}, TrainConfig{}, false, "backing store gone"},
		{"label", badLabels{digits, 60}, TrainConfig{}, true, "outside [0, 10)"},
		{"checkpoint", digits, TrainConfig{CheckpointPath: filepath.Join(t.TempDir(), "missing", "run.phck")}, false, "missing"},
	}
	for _, tc := range cases {
		for _, useFeed := range []bool{false, true} {
			cfg := tc.cfg
			cfg.Epochs, cfg.LR, cfg.ChunkExamples, cfg.BufferDepth = 2, 0.5, 30, 2
			var f *feed.Feed
			if useFeed {
				f, cfg.Feed = trainerFeed(t, tc.src, 10, 30)
				cfg.ChunkExamples = 0
			}
			before := runtime.NumGoroutine()
			tr := &Trainer{Dev: device.New(sim.XeonPhi5110P(), true, nil), Cfg: cfg}
			var err error
			if tc.labeled {
				_, err = tr.RunLabeled(m, tc.src)
			} else {
				_, err = tr.Run(m, tc.src)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s feed %v: error %v, want one containing %q", tc.name, useFeed, err, tc.want)
			}
			if after := settledGoroutines(before); after > before {
				t.Fatalf("%s feed %v: %d goroutines before the run, %d after", tc.name, useFeed, before, after)
			}
			if f != nil && f.Stats().Leases < 2 {
				t.Fatalf("%s feed %v: failed before the loader had work: %+v", tc.name, useFeed, f.Stats())
			}
		}
	}
}
