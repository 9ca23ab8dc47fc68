package tune

import (
	"errors"
	"fmt"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/mlp"
	"phideep/internal/sim"
)

// Workload is a training run the tuner can evaluate under different
// execution configurations. All evaluation is timing-only: candidates run
// on fresh model-only devices, so a whole grid costs milliseconds of host
// time regardless of the simulated hours it covers.
type Workload interface {
	// Platform returns the architecture the workload targets.
	Platform() *sim.Arch
	// FullIterations returns the minibatch updates of the full run (at the
	// default batch size; candidates overriding Batch are scaled to the
	// same example count, see EffectiveIters).
	FullIterations() int
	// DefaultBatch returns the workload's minibatch size.
	DefaultBatch() int
	// Evaluate runs the workload under candidate c for iters minibatch
	// updates on a fresh model-only device and returns the simulated
	// makespan in seconds (the objective value). Evaluation must be
	// leak-free: all device allocations are released on every path,
	// success and error alike.
	Evaluate(c Candidate, iters int) (float64, error)
}

// EffectiveIters returns the iteration count candidate c should run for so
// that every candidate trains on the same number of examples: candidates
// overriding Batch get proportionally fewer (or more) updates.
func EffectiveIters(w Workload, c Candidate) int {
	iters := w.FullIterations()
	if c.Batch > 0 && c.Batch != w.DefaultBatch() && w.DefaultBatch() > 0 {
		iters = (iters*w.DefaultBatch() + c.Batch - 1) / c.Batch
	}
	if iters < 1 {
		iters = 1
	}
	return iters
}

// WorkloadObjective adapts a Workload to the Objective signature: each
// candidate is evaluated with a full-length simulated run.
func WorkloadObjective(w Workload) Objective {
	return func(c Candidate) (float64, error) {
		return w.Evaluate(c, EffectiveIters(w, c))
	}
}

// Tune exhaustively searches the default grid for the workload.
func Tune(w Workload) (*Result, error) {
	return GridSearch(WorkloadObjective(w), DefaultCandidates(w.Platform()))
}

// evalContext builds the per-candidate model-only device and blas context:
// the candidate's ladder level selects the kernels, and its Fuse flag — not
// the level — controls loop fusion and Fig. 6 concurrency, so the fusion
// axis is searchable at every level.
func evalContext(arch *sim.Arch, c Candidate, seed uint64) (*device.Device, *blas.Context) {
	dev := device.New(arch, false, nil)
	ctx := core.NewContext(dev, c.Level, c.Cores, seed)
	ctx.ThreadsPerCore = c.ThreadsPerCore
	ctx.AutoFuse = c.Fuse
	ctx.AutoConcurrent = c.Fuse
	return dev, ctx
}

// trainerFor builds the timing-only trainer for one evaluation. The chunk
// size is pinned explicitly (see stepsPerChunk).
func trainerFor(dev *device.Device, iters, chunkExamples int) *core.Trainer {
	return &core.Trainer{Dev: dev, Cfg: core.TrainConfig{
		Iterations: iters, LR: 0.1, Prefetch: true,
		ChunkExamples: chunkExamples,
	}}
}

// leakCheck audits a finished evaluation: every device allocation must have
// been released, on error paths included. A non-zero residue is reported as
// an error (joined with the evaluation's own error, if any) rather than
// silently dropped — the regression that motivated this audit leaked the
// per-candidate model allocations whenever a build or run failed.
func leakCheck(dev *device.Device, err error) error {
	if leaked := dev.Allocated(); leaked != 0 {
		leakErr := fmt.Errorf("tune: candidate evaluation leaked %d device bytes", leaked)
		if err != nil {
			return errors.Join(err, leakErr)
		}
		return leakErr
	}
	return err
}

// stepsPerChunk mirrors core.Trainer's default chunk sizing (32 batches per
// chunk, capped by the dataset) without the device-memory cap, which the
// tuner's workloads never hit.
func stepsPerChunk(datasetExamples, batch int) int {
	if batch <= 0 {
		return 1
	}
	n := 32 * batch
	if max := datasetExamples / batch * batch; n > max {
		n = max
	}
	if n < batch {
		n = batch
	}
	return n / batch
}

// AEWorkload describes a Sparse Autoencoder training run to tune for.
type AEWorkload struct {
	Arch            *sim.Arch
	Model           autoencoder.Config
	Batch           int
	Iterations      int
	DatasetExamples int
	// Seed drives the model's (and context's) RNG stream; zero selects 1,
	// the value earlier versions hard-coded.
	Seed uint64
}

func (w AEWorkload) seed() uint64 {
	if w.Seed == 0 {
		return 1
	}
	return w.Seed
}

// Platform implements Workload.
func (w AEWorkload) Platform() *sim.Arch { return w.Arch }

// FullIterations implements Workload.
func (w AEWorkload) FullIterations() int { return w.Iterations }

// DefaultBatch implements Workload.
func (w AEWorkload) DefaultBatch() int { return w.Batch }

// Evaluate implements Workload.
func (w AEWorkload) Evaluate(c Candidate, iters int) (float64, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	batch := c.Batch
	if batch == 0 {
		batch = w.Batch
	}
	dev, ctx := evalContext(w.Arch, c, w.seed())
	mcfg := w.Model
	mcfg.Batch = batch
	mcfg.Seed = w.seed()
	m, err := autoencoder.Build(ctx, mcfg)
	if err != nil {
		return 0, leakCheck(dev, err)
	}
	tr := trainerFor(dev, iters, stepsPerChunk(w.DatasetExamples, batch)*batch)
	res, err := tr.Run(m, data.Null{D: w.Model.Visible, N: w.DatasetExamples})
	m.Free()
	if err = leakCheck(dev, err); err != nil {
		return 0, err
	}
	return res.SimSeconds, nil
}

// Objective returns the tuning objective for the workload: each candidate
// is evaluated by a timing-only run on a fresh device.
func (w AEWorkload) Objective() Objective { return WorkloadObjective(w) }

// Tune exhaustively searches the default grid for the workload.
func (w AEWorkload) Tune() (*Result, error) { return Tune(w) }

// MLPWorkload describes a supervised multi-layer-perceptron training run to
// tune for (labels stream next to the examples, as in Trainer.RunLabeled).
type MLPWorkload struct {
	Arch            *sim.Arch
	Model           mlp.Config
	Batch           int
	Iterations      int
	DatasetExamples int
	// Seed drives the model's RNG stream; zero selects 1.
	Seed uint64
}

func (w MLPWorkload) seed() uint64 {
	if w.Seed == 0 {
		return 1
	}
	return w.Seed
}

// Platform implements Workload.
func (w MLPWorkload) Platform() *sim.Arch { return w.Arch }

// FullIterations implements Workload.
func (w MLPWorkload) FullIterations() int { return w.Iterations }

// DefaultBatch implements Workload.
func (w MLPWorkload) DefaultBatch() int { return w.Batch }

// Evaluate implements Workload.
func (w MLPWorkload) Evaluate(c Candidate, iters int) (float64, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	batch := c.Batch
	if batch == 0 {
		batch = w.Batch
	}
	dev, ctx := evalContext(w.Arch, c, w.seed())
	mcfg := w.Model
	mcfg.Batch = batch
	mcfg.Seed = w.seed()
	m, err := mlp.Build(ctx, mcfg)
	if err != nil {
		return 0, leakCheck(dev, err)
	}
	tr := trainerFor(dev, iters, stepsPerChunk(w.DatasetExamples, batch)*batch)
	src := data.NullLabeled{
		Null:    data.Null{D: m.InputDim(), N: w.DatasetExamples},
		Classes: m.OutputDim(),
	}
	res, err := tr.RunLabeled(m, src)
	m.Free()
	if err = leakCheck(dev, err); err != nil {
		return 0, err
	}
	return res.SimSeconds, nil
}

// Objective returns the tuning objective for the workload.
func (w MLPWorkload) Objective() Objective { return WorkloadObjective(w) }

// Tune exhaustively searches the default grid for the workload.
func (w MLPWorkload) Tune() (*Result, error) { return Tune(w) }

// ConvWorkload describes a supervised convolutional-network training run to
// tune for.
type ConvWorkload struct {
	Arch            *sim.Arch
	Model           convnet.Config
	Batch           int
	Iterations      int
	DatasetExamples int
	// Seed drives the model's RNG stream; zero selects 1.
	Seed uint64
}

func (w ConvWorkload) seed() uint64 {
	if w.Seed == 0 {
		return 1
	}
	return w.Seed
}

// Platform implements Workload.
func (w ConvWorkload) Platform() *sim.Arch { return w.Arch }

// FullIterations implements Workload.
func (w ConvWorkload) FullIterations() int { return w.Iterations }

// DefaultBatch implements Workload.
func (w ConvWorkload) DefaultBatch() int { return w.Batch }

// Evaluate implements Workload.
func (w ConvWorkload) Evaluate(c Candidate, iters int) (float64, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	batch := c.Batch
	if batch == 0 {
		batch = w.Batch
	}
	dev, ctx := evalContext(w.Arch, c, w.seed())
	mcfg := w.Model
	mcfg.Batch = batch
	mcfg.Seed = w.seed()
	m, err := convnet.Build(ctx, mcfg)
	if err != nil {
		return 0, leakCheck(dev, err)
	}
	tr := trainerFor(dev, iters, stepsPerChunk(w.DatasetExamples, batch)*batch)
	src := data.NullLabeled{
		Null:    data.Null{D: m.InputDim(), N: w.DatasetExamples},
		Classes: m.OutputDim(),
	}
	res, err := tr.RunLabeled(m, src)
	m.Free()
	if err = leakCheck(dev, err); err != nil {
		return 0, err
	}
	return res.SimSeconds, nil
}

// Objective returns the tuning objective for the workload.
func (w ConvWorkload) Objective() Objective { return WorkloadObjective(w) }

// Tune exhaustively searches the default grid for the workload.
func (w ConvWorkload) Tune() (*Result, error) { return Tune(w) }
