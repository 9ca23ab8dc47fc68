package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/metrics"
	"phideep/internal/opt"
	"phideep/internal/tensor"
)

// Trainable is a model the engine can drive: one gradient-and-update step
// per minibatch resident on the device.
type Trainable interface {
	// Step consumes one Batch×InputDim device buffer and returns a
	// progress metric (reconstruction error; 0 on model-only devices).
	Step(x *device.Buffer, lr float64) float64
	// BatchSize returns the fixed minibatch size the model was built for.
	BatchSize() int
	// InputDim returns the example dimensionality.
	InputDim() int
}

// TrainConfig parameterizes one training run of Algorithm 1.
type TrainConfig struct {
	// Epochs is the number of passes over the source. Mutually exclusive
	// with Iterations.
	Epochs int
	// Iterations, when non-zero, trains for exactly this many minibatch
	// updates (streaming through the source with wraparound) instead of
	// whole epochs — the "200 iterations per layer" protocol of Table I.
	Iterations int
	// LR is the learning rate; Schedule, when non-nil, overrides it per
	// update step.
	LR       float64
	Schedule func(step int) float64
	// Adaptive, when non-nil, overrides both with a loss-driven controller
	// (the §III adaptive-learning-rate strategy, e.g. opt.NewBoldDriver).
	// Effective only on numeric devices — timing-only runs have no loss
	// signal and fall back to Schedule/LR.
	Adaptive opt.AdaptiveLR
	// ChunkExamples is the number of examples per device chunk (Fig. 5's
	// "large chunk"). It must be a positive multiple of the model's batch
	// size. Zero defaults to min(srcLen, 32×batch) rounded to a batch
	// multiple.
	ChunkExamples int
	// BufferDepth is the number of staging chunk buffers in device global
	// memory; 2 gives the paper's double buffering. Minimum 1.
	BufferDepth int
	// Prefetch shapes the simulated schedule only: the simulated transfer
	// of chunk i+1 proceeds while chunk i trains. With Prefetch false every
	// simulated transfer waits for the compute engine to drain first (the
	// configuration the paper measured at "about 17% of the total time ...
	// spent on transferring"). The host fill of chunk i+1 runs on a loading
	// thread while chunk i trains either way; BufferDepth 1 leaves it
	// nothing to overlap.
	Prefetch bool
	// CheckpointPath, when non-empty, enables crash-consistent periodic
	// checkpointing: every CheckpointEvery chunks the trainer atomically
	// persists the model state (parameters + RNG stream) and the run
	// cursor via WriteCheckpoint. The model must implement Checkpointer.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in chunks; zero defaults
	// to 1 (after every chunk).
	CheckpointEvery int
	// ResumePath, when non-empty, restores a checkpoint written by a
	// previous run before training starts: the model state is re-uploaded
	// and the run re-enters the chunk loop at the saved cursor. For models
	// whose only mutable state is parameters and the RNG stream, the
	// resumed run is bit-identical to the uninterrupted one.
	ResumePath string
	// Feed is the data plane consumer (DESIGN.md §15) the run streams its
	// chunks through. Every chunk is leased before its transfer and
	// committed — at the simulated time compute drained it — when its ring
	// slot is reused. Nil means a private single-consumer feed over the
	// source, with the run's chunk plan and BufferDepth as its window. A
	// caller's feed supplies the chunk geometry instead (ChunkExamples, if
	// also set, must agree), its lease window must cover BufferDepth, and
	// a resumed run re-seeks it to the checkpointed chunk. A single
	// consumer's lease walk does not depend on which feed it is, so
	// results are bit-identical either way at a fixed seed.
	Feed *feed.Consumer
}

// Result summarizes a training run.
type Result struct {
	// SimSeconds is the simulated makespan of all device work.
	SimSeconds float64
	// Steps is the number of minibatch updates executed.
	Steps int
	// Examples is the number of training examples consumed.
	Examples int
	// Chunks is the number of chunk transfers issued.
	Chunks int
	// FinalLoss and FirstLoss are the progress metric averaged over the
	// last and first chunk respectively (NaN on model-only devices).
	FirstLoss, FinalLoss float64
	// EpochLoss is the average progress metric per epoch (empty when
	// Iterations mode is used; NaN entries on model-only devices).
	EpochLoss []float64
	// WallSeconds is the real (host) execution time of the run — the
	// measured counterpart of the simulated SimSeconds.
	WallSeconds float64
	// ExamplesPerSec is Examples / WallSeconds: the run's real end-to-end
	// training throughput.
	ExamplesPerSec float64
	// EpochWallSeconds is the real host time per completed epoch, parallel
	// to EpochLoss (empty in Iterations mode).
	EpochWallSeconds []float64
	// SkippedChunks counts chunk transfers abandoned by the device fault
	// model after exhausting their retry budget; for each, the trainer
	// trained on the slot's last good contents instead (graceful
	// degradation) and recorded the skip here.
	SkippedChunks int
	// Checkpoints is the number of checkpoints written during the run.
	Checkpoints int
	// Resumed reports that the run was restored from TrainConfig.ResumePath.
	Resumed bool
	// Device is the device activity snapshot at the end of the run.
	Device device.Stats
}

// LabeledTrainable is a model the engine can drive supervised: one
// gradient-and-update step per (minibatch, one-hot target) pair resident on
// the device. The convnet classifier implements it.
type LabeledTrainable interface {
	// StepLabeled consumes a Batch×InputDim input buffer and a
	// Batch×OutputDim one-hot target buffer and returns a progress metric
	// (batch-mean cross-entropy; 0 on model-only devices).
	StepLabeled(x, y *device.Buffer, lr float64) float64
	// BatchSize returns the fixed minibatch size the model was built for.
	BatchSize() int
	// InputDim returns the example dimensionality.
	InputDim() int
	// OutputDim returns the number of classes.
	OutputDim() int
}

// Trainer runs Algorithm 1 on one device.
type Trainer struct {
	Dev *device.Device
	Cfg TrainConfig
}

// Run trains model on src and returns the run summary. The device's
// simulated timelines are *not* reset, so successive runs accumulate (use
// ResetTime between independent measurements).
func (t *Trainer) Run(model Trainable, src data.Source) (*Result, error) {
	return t.run(model, nil, src, nil)
}

// RunLabeled trains a supervised model: alongside each example chunk the
// trainer stages the matching one-hot label chunk over the same simulated
// PCIe link, then drives StepLabeled per minibatch. Everything else —
// double buffering, graceful degradation, checkpoint/resume — behaves
// exactly as in Run.
func (t *Trainer) RunLabeled(model LabeledTrainable, src data.Labeled) (*Result, error) {
	if model.OutputDim() <= 0 {
		return nil, fmt.Errorf("core: labeled model has non-positive output dim %d", model.OutputDim())
	}
	return t.run(nil, model, src, src)
}

// run is the shared chunk loop. Exactly one of um and lm is non-nil; lsrc
// is non-nil iff lm is.
func (t *Trainer) run(um Trainable, lm LabeledTrainable, src data.Source, lsrc data.Labeled) (*Result, error) {
	var model interface {
		BatchSize() int
		InputDim() int
	} = um
	if lm != nil {
		model = lm
	}
	batch := model.BatchSize()
	dim := model.InputDim()
	if src.Dim() != dim {
		return nil, fmt.Errorf("core: source dim %d, model wants %d", src.Dim(), dim)
	}
	if src.Len() < batch {
		return nil, fmt.Errorf("core: source has %d examples, smaller than one batch of %d", src.Len(), batch)
	}
	cfg := t.Cfg
	if cfg.Epochs <= 0 && cfg.Iterations <= 0 {
		return nil, fmt.Errorf("core: neither Epochs nor Iterations set")
	}
	if cfg.Epochs > 0 && cfg.Iterations > 0 {
		return nil, fmt.Errorf("core: Epochs and Iterations are mutually exclusive")
	}
	if cfg.BufferDepth <= 0 {
		cfg.BufferDepth = 2
	}
	fc := cfg.Feed
	if fc == nil {
		perDim := dim
		if lm != nil {
			perDim += lm.OutputDim() // the one-hot label ring stages too
		}
		// PlanChunks validates an explicit chunk size, or auto-sizes one that
		// fits what is left of device global memory next to the model — the
		// 8 GB constraint that shapes the paper's chunking in the first place.
		plan, err := data.PlanChunks(data.PlanRequest{
			SourceLen: src.Len(), Batch: batch, ChunkExamples: cfg.ChunkExamples,
			BufferDepth: cfg.BufferDepth, ExampleDoubles: perDim,
			FreeBytes: t.Dev.Arch.GlobalMemBytes - t.Dev.Allocated(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		// A private feed: one consumer with a window of the ring's depth
		// holds at most depth-1 leases when it asks for the next, so it
		// never stalls and never finds its window full.
		fcfg := feed.Config{Plan: plan, Window: cfg.BufferDepth}
		var f *feed.Feed
		if lsrc != nil {
			f, err = feed.NewLabeled(lsrc, fcfg)
		} else {
			f, err = feed.New(src, fcfg)
		}
		if err == nil {
			fc, err = f.Subscribe("trainer")
		}
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	// The data plane supplies the chunk geometry: adopt the feed's
	// validated plan and refuse a conflicting local override.
	fp := fc.Plan()
	if fp.SourceLen != src.Len() {
		return nil, fmt.Errorf("core: feed plan covers %d examples, source has %d", fp.SourceLen, src.Len())
	}
	if fp.Batch != batch {
		return nil, fmt.Errorf("core: feed plan batch %d, model wants %d", fp.Batch, batch)
	}
	if cfg.ChunkExamples != 0 && cfg.ChunkExamples != fp.ChunkExamples {
		return nil, fmt.Errorf("core: ChunkExamples %d conflicts with feed plan's %d", cfg.ChunkExamples, fp.ChunkExamples)
	}
	// Every ring slot holds a lease until its chunk has trained, so a
	// smaller window would refuse a lease after training had started.
	if fc.Window() < cfg.BufferDepth {
		return nil, fmt.Errorf("core: feed lease window %d is smaller than BufferDepth %d", fc.Window(), cfg.BufferDepth)
	}
	cfg.ChunkExamples = fp.ChunkExamples
	if cfg.LR == 0 && cfg.Schedule == nil && cfg.Adaptive == nil {
		return nil, fmt.Errorf("core: zero learning rate")
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("core: negative checkpoint cadence %d", cfg.CheckpointEvery)
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1
	}
	var ckpt Checkpointer
	if cfg.CheckpointPath != "" || cfg.ResumePath != "" {
		c, ok := model.(Checkpointer)
		if !ok {
			return nil, fmt.Errorf("core: model %T cannot checkpoint (no SaveState/RestoreState)", model)
		}
		ckpt = c
	}

	// Total update steps.
	stepsPerEpoch := src.Len() / batch
	totalSteps := cfg.Iterations
	if totalSteps == 0 {
		totalSteps = cfg.Epochs * stepsPerEpoch
	}
	batchesPerChunk := cfg.ChunkExamples / batch
	totalChunks := (totalSteps + batchesPerChunk - 1) / batchesPerChunk

	// Staging ring in device global memory (Fig. 5); supervised runs stage
	// a parallel one-hot label ring through the same link.
	ring := make([]*device.Buffer, cfg.BufferDepth)
	hostStage := make([]*tensor.Matrix, cfg.BufferDepth)
	var labelRing []*device.Buffer
	var hostLabels []*tensor.Matrix
	classes := 0
	if lm != nil {
		classes = lm.OutputDim()
		labelRing = make([]*device.Buffer, cfg.BufferDepth)
		hostLabels = make([]*tensor.Matrix, cfg.BufferDepth)
	}
	freeRings := func() {
		for _, b := range ring {
			if b != nil {
				t.Dev.Free(b)
			}
		}
		for _, b := range labelRing {
			if b != nil {
				t.Dev.Free(b)
			}
		}
	}
	for i := range ring {
		b, err := t.Dev.Alloc(cfg.ChunkExamples, dim)
		if err != nil {
			freeRings()
			return nil, fmt.Errorf("core: allocating chunk ring: %w", err)
		}
		ring[i] = b
		if t.Dev.Numeric {
			hostStage[i] = tensor.NewMatrix(cfg.ChunkExamples, dim)
		}
		if lm != nil {
			yb, err := t.Dev.Alloc(cfg.ChunkExamples, classes)
			if err != nil {
				freeRings()
				return nil, fmt.Errorf("core: allocating label ring: %w", err)
			}
			labelRing[i] = yb
			if t.Dev.Numeric {
				hostLabels[i] = tensor.NewMatrix(cfg.ChunkExamples, classes)
			}
		}
	}
	defer freeRings()

	// slotFree[i] is the simulated time at which ring slot i may be
	// overwritten (its previous chunk fully consumed by compute).
	slotFree := make([]float64, cfg.BufferDepth)

	// Each ring slot holds the lease of the chunk it stages; the lease
	// commits — at the simulated time compute drained the slot — when the
	// slot is reused or the run ends, so the feed's window occupancy
	// mirrors the double-buffer occupancy exactly.
	slotLease := make([]feed.Lease, cfg.BufferDepth)
	slotLeased := make([]bool, cfg.BufferDepth)
	slotSkipped := make([]bool, cfg.BufferDepth)
	commitSlot := func(slot int) error {
		if !slotLeased[slot] {
			return nil
		}
		slotLeased[slot] = false
		if err := fc.Commit(slotLease[slot], slotFree[slot], slotSkipped[slot]); err != nil {
			return fmt.Errorf("core: feed commit: %w", err)
		}
		return nil
	}

	res := &Result{FirstLoss: math.NaN(), FinalLoss: math.NaN()}
	step := 0
	startChunk := 0
	epochLossSum, epochLossN := 0.0, 0
	if cfg.ResumePath != "" {
		c, err := ReadCheckpoint(cfg.ResumePath)
		if err != nil {
			return nil, err
		}
		if err := ckpt.RestoreState(bytes.NewReader(c.Model)); err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		if c.Step > totalSteps || c.Chunk > totalChunks {
			return nil, fmt.Errorf("core: resume: checkpoint cursor (step %d, chunk %d) past this run's end (step %d, chunk %d)",
				c.Step, c.Chunk, totalSteps, totalChunks)
		}
		step, startChunk = c.Step, c.Chunk
		res.Examples = c.Examples
		res.SkippedChunks = c.Skipped
		res.FirstLoss = c.FirstLoss
		res.EpochLoss = append(res.EpochLoss, c.EpochLoss...)
		epochLossSum, epochLossN = c.EpochLossSum, c.EpochLossN
		res.Resumed = true
		if metrics.Enabled() {
			mResumes.Inc()
		}
	}
	if fc.Pos() != startChunk {
		// Re-subscribe at the checkpointed position: the consumer's local
		// ordinal is exactly the trainer's chunk cursor.
		if err := fc.Seek(startChunk); err != nil {
			return nil, fmt.Errorf("core: feed seek to chunk %d: %w", startChunk, err)
		}
	}
	// fill renders one leased chunk into its ring slot's host staging (and,
	// for a supervised run, its one-hot labels). It runs on the loading
	// thread while earlier chunks train, so it touches host memory only.
	fill := func(slot int, lease feed.Lease) error {
		if !t.Dev.Numeric {
			return nil
		}
		if err := fc.Fill(lease, hostStage[slot]); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if lm != nil {
			if err := fc.FillLabels(lease, classes, hostLabels[slot]); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
		return nil
	}
	// The loading thread of Algorithm 1 (Fig. 5). Only the host fill runs
	// on it; leases, commits, transfers, steps and checkpoints stay on this
	// goroutine in the order a sequential loop issues them.
	ld := feed.NewLoader(cfg.BufferDepth)
	defer ld.Close()
	// stage leases chunk — if the run reaches it, at step — and hands its
	// fill to the loader. It reports whether there is such a chunk.
	stage := func(chunk, step int) (bool, error) {
		if chunk >= totalChunks || step >= totalSteps {
			return false, nil
		}
		slot := chunk % cfg.BufferDepth
		// Commit the slot's previous occupant (compute drained it at
		// slotFree[slot]) before leasing its replacement, so the
		// consumer's window occupancy never exceeds the ring depth.
		if err := commitSlot(slot); err != nil {
			return false, err
		}
		lease, err := fc.Lease()
		if errors.Is(err, feed.ErrExhausted) {
			return false, nil // the data plane's horizon ends the run here
		}
		if err != nil {
			return false, fmt.Errorf("core: feed lease: %w", err)
		}
		slotLease[slot], slotLeased[slot], slotSkipped[slot] = lease, true, false
		ld.Submit(func() error { return fill(slot, lease) })
		return true, nil
	}

	runStart := time.Now()
	epochStart := runStart

	staged, err := stage(startChunk, step)
	if err != nil {
		return nil, err
	}
	for chunk := startChunk; staged; chunk++ {
		slot := chunk % cfg.BufferDepth
		buf := ring[slot]

		// With two or more slots the next chunk is leased and filled while
		// this one trains. Its slot's previous occupant trained before this
		// chunk, so the commit its lease makes carries a final slotFree.
		next := false
		if cfg.BufferDepth > 1 {
			if next, err = stage(chunk+1, step+batchesPerChunk); err != nil {
				return nil, err
			}
		}
		if err := ld.Wait(); err != nil {
			return nil, err
		}

		// On the simulated clock the transfer starts as soon as the slot
		// and the PCIe link are free; without prefetch it additionally
		// waits for the compute engine to drain (synchronous transfers).
		earliest := slotFree[slot]
		if !cfg.Prefetch {
			if cb := t.Dev.ComputeBusyUntil(); cb > earliest {
				earliest = cb
			}
		}
		// The host stages are nil on timing-only devices.
		_, copyErr := t.Dev.TryCopyIn(buf, hostStage[slot], earliest)
		if lm != nil {
			_, labelErr := t.Dev.TryCopyIn(labelRing[slot], hostLabels[slot], earliest)
			if copyErr == nil {
				copyErr = labelErr // degrade once per chunk, whichever half failed
			}
		}
		res.Chunks++
		if copyErr != nil {
			// Graceful degradation: the transfer engine abandoned this
			// chunk (permanent fault or retries exhausted). Its failed
			// attempts and backoffs are already on the simulated clock;
			// train this chunk's batches on the slot's last good contents
			// (zeros if the slot was never filled) and record the skip.
			res.SkippedChunks++
			slotSkipped[slot] = true // the commit will carry the skip flag
			if metrics.Enabled() {
				mSkippedChunks.Inc()
			}
		}

		chunkLossSum, chunkLossN := 0.0, 0
		for b := 0; b < batchesPerChunk && step < totalSteps; b++ {
			x := buf.Slice(b*batch, (b+1)*batch)
			lr := cfg.LR
			if cfg.Schedule != nil {
				lr = cfg.Schedule(step)
			}
			if cfg.Adaptive != nil && t.Dev.Numeric {
				lr = cfg.Adaptive.LR()
			}
			var loss float64
			if lm != nil {
				y := labelRing[slot].Slice(b*batch, (b+1)*batch)
				loss = lm.StepLabeled(x, y, lr)
			} else {
				loss = um.Step(x, lr)
			}
			if cfg.Adaptive != nil && t.Dev.Numeric {
				cfg.Adaptive.Observe(loss)
			}
			chunkLossSum += loss
			chunkLossN++
			step++
			res.Examples += batch

			if cfg.Epochs > 0 {
				epochLossSum += loss
				epochLossN++
				if step%stepsPerEpoch == 0 {
					res.EpochLoss = append(res.EpochLoss, avgOrNaN(t.Dev, epochLossSum, epochLossN))
					epochLossSum, epochLossN = 0, 0
					now := time.Now()
					sec := now.Sub(epochStart).Seconds()
					res.EpochWallSeconds = append(res.EpochWallSeconds, sec)
					epochStart = now
					if metrics.Enabled() {
						mEpochSeconds.Observe(sec)
					}
				}
			}
		}
		avg := avgOrNaN(t.Dev, chunkLossSum, chunkLossN)
		if chunk == 0 {
			res.FirstLoss = avg
		}
		res.FinalLoss = avg
		// The slot may be reused once the compute engine has consumed
		// everything issued so far (all batches of this chunk included).
		slotFree[slot] = t.Dev.ComputeBusyUntil()

		if cfg.CheckpointPath != "" && (chunk+1-startChunk)%cfg.CheckpointEvery == 0 {
			var blob bytes.Buffer
			if err := ckpt.SaveState(&blob); err != nil {
				return nil, fmt.Errorf("core: checkpoint: %w", err)
			}
			c := &Checkpoint{
				Step: step, Chunk: chunk + 1, Examples: res.Examples,
				Skipped: res.SkippedChunks, FirstLoss: res.FirstLoss,
				EpochLossSum: epochLossSum, EpochLossN: epochLossN,
				EpochLoss: res.EpochLoss, Model: blob.Bytes(),
			}
			if err := WriteCheckpoint(cfg.CheckpointPath, c); err != nil {
				return nil, err
			}
			res.Checkpoints++
			if metrics.Enabled() {
				mCheckpoints.Inc()
			}
		}
		if cfg.BufferDepth == 1 {
			// One slot: the next chunk may only be staged once this one
			// has drained it, which is the sequential order.
			if next, err = stage(chunk+1, step); err != nil {
				return nil, err
			}
		}
		staged = next
	}

	// Drain the ring: commit the last occupants at the times compute
	// finished with them, oldest slot first for a stable ledger.
	for s := 0; s < cfg.BufferDepth; s++ {
		if err := commitSlot(s); err != nil {
			return nil, err
		}
	}
	res.Steps = step
	res.SimSeconds = t.Dev.Now()
	res.Device = t.Dev.Stats()
	res.WallSeconds = time.Since(runStart).Seconds()
	if res.WallSeconds > 0 {
		res.ExamplesPerSec = float64(res.Examples) / res.WallSeconds
	}
	if metrics.Enabled() {
		mRuns.Inc()
		mSteps.Add(int64(res.Steps))
		mExamples.Add(int64(res.Examples))
		mChunks.Add(int64(res.Chunks))
		mExamplesPerSec.Set(res.ExamplesPerSec)
	}
	return res, nil
}

func avgOrNaN(dev *device.Device, sum float64, n int) float64 {
	if !dev.Numeric || n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
