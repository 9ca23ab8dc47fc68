package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/parallel"
	"phideep/internal/rbm"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// Span names of the training timeline.
const (
	spanRun   = "trainer.run"
	spanStep  = "model.step"
	spanChunk = "source.chunk"
)

// trainSpec fixes one training workload. Work is fixed by count: epochs
// is the count at the nominal run length.
type trainSpec struct {
	side, examples, batch int
	epochs                int
	lr                    float64
	// target is the epoch loss that counts as trained: every seed tried
	// reaches it a little under halfway through the nominal run, so the
	// traced pass's half-length runs reach it too. A full-length run that
	// never reaches it fails its check.
	target  float64
	useFeed bool
	build   func(ctx *blas.Context, batch int, seed uint64) (*trainModel, error)
}

// trainModel is the model under training; exactly one of um and lm is set.
type trainModel struct {
	um   core.Trainable
	lm   core.LabeledTrainable
	free func()
}

const (
	chunkExamples = 1024
	minEpochs     = 8 // keeps a median of epoch walls meaningful and the target reachable
)

var aeLarge = trainSpec{side: 32, examples: 4096, batch: 256, epochs: 10, lr: 0.5, target: 20,
	build: func(ctx *blas.Context, batch int, seed uint64) (*trainModel, error) {
		m, err := autoencoder.Build(ctx, autoencoder.Config{Visible: 1024, Hidden: 512,
			Lambda: 1e-4, Beta: 0.1, Rho: 0.05, Batch: batch, Seed: seed})
		if err != nil {
			return nil, err
		}
		return &trainModel{um: m, free: m.Free}, nil
	}}

var rbmSmall = trainSpec{side: 12, examples: 16384, batch: 32, epochs: 24, lr: 0.1, target: 2.55,
	build: func(ctx *blas.Context, batch int, seed uint64) (*trainModel, error) {
		m, err := rbm.Build(ctx, rbm.Config{Visible: 144, Hidden: 64, SampleHidden: true,
			Batch: batch, Seed: seed})
		if err != nil {
			return nil, err
		}
		return &trainModel{um: m, free: m.Free}, nil
	}}

var convFeed = trainSpec{side: 16, examples: 4096, batch: 64, epochs: 12, lr: 0.2, target: 1.8, useFeed: true,
	build: func(ctx *blas.Context, batch int, seed uint64) (*trainModel, error) {
		m, err := convnet.Build(ctx, convCfg(batch, seed))
		if err != nil {
			return nil, err
		}
		return &trainModel{lm: m, free: m.Free}, nil
	}}

// convCfg is the LeNet-style geometry of train-convnet-feed; the conv
// probes time the kernels at these shapes.
func convCfg(batch int, seed uint64) convnet.Config {
	return convnet.Config{Side: 16, Filters1: 6, Kernel1: 5, Filters2: 12, Kernel2: 3,
		Pool: 2, Classes: 10, Lambda: 1e-4, Batch: batch, Seed: seed}
}

// tracedSource records a span around every chunk the program pulls.
type tracedSource struct {
	data.Labeled
	tr *tracer
}

func (s tracedSource) Chunk(start, n int, dst *tensor.Matrix) {
	id := s.tr.begin(spanChunk)
	s.Labeled.Chunk(start, n, dst)
	s.tr.end(id)
}

// stepClock sits between the trainer and the model and notes when each
// minibatch step returned. The interval between two returns is what one
// step costs the run: the step itself plus whatever the trainer did and
// waited for in between (chunk hand-over, a prefetch that came late). Two
// clock reads per step are the only cost, so the end-to-end pass keeps it;
// the traced pass also records a span around every step.
type stepClock struct {
	tr   *tracer
	ends []time.Time
}

func (c *stepClock) begin() int { return c.tr.begin(spanStep) }

func (c *stepClock) end(id int) {
	c.tr.end(id)
	c.ends = append(c.ends, time.Now())
}

// intervals returns the seconds between consecutive step returns.
func (c *stepClock) intervals() []float64 {
	var d []float64
	for i := 1; i < len(c.ends); i++ {
		d = append(d, c.ends[i].Sub(c.ends[i-1]).Seconds())
	}
	return d
}

type clockedModel struct {
	core.Trainable
	c *stepClock
}

func (m clockedModel) Step(x *device.Buffer, lr float64) float64 {
	id := m.c.begin()
	loss := m.Trainable.Step(x, lr)
	m.c.end(id)
	return loss
}

type clockedLabeledModel struct {
	core.LabeledTrainable
	c *stepClock
}

func (m clockedLabeledModel) StepLabeled(x, y *device.Buffer, lr float64) float64 {
	id := m.c.begin()
	loss := m.LabeledTrainable.StepLabeled(x, y, lr)
	m.c.end(id)
	return loss
}

// trainRig is one device, model, source and (optionally) feed, ready for
// one Trainer run.
type trainRig struct {
	dev   *device.Device
	model *trainModel
	src   data.Labeled
	fd    *feed.Feed
	cfg   core.TrainConfig
}

// newTrainRig builds one rig. With a clock the model is wrapped in it, and
// with a tracer in the clock the source records chunk spans too; the
// reference rig passes nil and runs bare.
func newTrainRig(spec trainSpec, pool *parallel.Pool, seed uint64, clock *stepClock) (*trainRig, error) {
	dev := device.New(sim.XeonPhi5110P(), true, pool)
	ctx := core.NewContext(dev, core.Improved, 0, seed)
	model, err := spec.build(ctx, spec.batch, seed)
	if err != nil {
		return nil, err
	}
	r := &trainRig{dev: dev, model: model,
		src: data.NewDigits(spec.side, spec.examples, seed, 0.05),
		cfg: core.TrainConfig{LR: spec.lr, Prefetch: true, BufferDepth: 2, ChunkExamples: chunkExamples}}
	if clock != nil {
		if clock.tr != nil {
			r.src = tracedSource{r.src, clock.tr}
		}
		if model.um != nil {
			model.um = clockedModel{model.um, clock}
		} else {
			model.lm = clockedLabeledModel{model.lm, clock}
		}
	}
	if spec.useFeed {
		plan, err := data.PlanChunks(data.PlanRequest{SourceLen: spec.examples, Batch: spec.batch,
			ChunkExamples: chunkExamples})
		if err != nil {
			return nil, err
		}
		if r.fd, err = feed.NewLabeled(r.src, feed.Config{Plan: plan, Window: 2}); err != nil {
			return nil, err
		}
		if r.cfg.Feed, err = r.fd.Subscribe("trainer"); err != nil {
			return nil, err
		}
		r.cfg.ChunkExamples = 0 // geometry comes from the feed's plan
	}
	return r, nil
}

func (r *trainRig) train(epochs int) (*core.Result, error) {
	r.cfg.Epochs = epochs
	t := &core.Trainer{Dev: r.dev, Cfg: r.cfg}
	if r.model.lm != nil {
		return t.RunLabeled(r.model.lm, r.src)
	}
	return t.Run(r.model.um, r.src)
}

// trainInstance is a set-up training workload: the rig to time and the
// one-epoch reference run at the same seed its first epoch must reproduce.
type trainInstance struct {
	spec   trainSpec
	pool   *parallel.Pool
	rig    *trainRig
	ref    *core.Result
	epochs int
	clock  *stepClock
}

func setupTrain(spec trainSpec, cfg runCfg, tr *tracer) (instance, error) {
	pool := parallel.NewPool(cfg.procs)
	ref, err := newTrainRig(spec, pool, cfg.seed, nil)
	if err != nil {
		pool.Close()
		return nil, err
	}
	refRes, err := ref.train(1)
	ref.model.free()
	runtime.GC() // the reference rig is garbage: collect it so that peak_rss_mb is the timed rig's alone
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("reference epoch: %w", err)
	}
	epochs := cfg.count(spec.epochs, minEpochs)
	clock := &stepClock{tr: tr, ends: make([]time.Time, 0, epochs*spec.examples/spec.batch)}
	rig, err := newTrainRig(spec, pool, cfg.seed, clock)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &trainInstance{spec: spec, pool: pool, rig: rig, ref: refRes, epochs: epochs, clock: clock}, nil
}

func (ti *trainInstance) close() {
	ti.rig.model.free()
	ti.pool.Close()
}

func (ti *trainInstance) extras(*outcome) error { return nil }

func (ti *trainInstance) run() (*outcome, error) {
	spec, tr := ti.spec, ti.clock.tr
	root := tr.begin(spanRun)
	res, err := ti.rig.train(ti.epochs)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	o := &outcome{unit: ti.clock.intervals(), wall: res.WallSeconds, spans: tr.snapshot()}
	o.rowsPerS = float64(spec.examples) / median(res.EpochWallSeconds)
	batchesPerChunk := chunkExamples / spec.batch
	o.attempted = res.Steps
	o.failed = res.SkippedChunks * batchesPerChunk

	wantSteps := ti.epochs * spec.examples / spec.batch
	wantChunks := ti.epochs * spec.examples / chunkExamples
	o.check("steps match the plan", res.Steps == wantSteps, "%d steps, want %d", res.Steps, wantSteps)
	o.check("chunks match the plan", res.Chunks == wantChunks, "%d chunks, want %d", res.Chunks, wantChunks)
	o.check("no skipped chunks", res.SkippedChunks == 0, "%d skipped", res.SkippedChunks)
	o.check("epochs recorded", len(res.EpochLoss) == ti.epochs && len(res.EpochWallSeconds) == ti.epochs,
		"%d losses, %d walls, want %d", len(res.EpochLoss), len(res.EpochWallSeconds), ti.epochs)
	if len(res.EpochLoss) == 0 {
		return o, nil
	}
	o.check("epoch 1 reproduces the reference run bitwise",
		res.EpochLoss[0] == ti.ref.EpochLoss[0] && res.FirstLoss == ti.ref.FirstLoss,
		"epoch loss %v vs %v, first chunk %v vs %v", res.EpochLoss[0], ti.ref.EpochLoss[0], res.FirstLoss, ti.ref.FirstLoss)
	last := res.EpochLoss[len(res.EpochLoss)-1]
	o.check("loss decreases", last < res.EpochLoss[0], "final %v, first %v", last, res.EpochLoss[0])

	units := unitsToTarget(res.EpochLoss, spec.target)
	if ti.epochs >= spec.epochs {
		o.check("target loss reached", !math.IsNaN(units), "loss %v after %d epochs, target %v", last, ti.epochs, spec.target)
	}
	if !math.IsNaN(units) {
		o.set("models.units_to_target", units, 1)
		o.set("models.time_to_target_s", units*median(res.EpochWallSeconds), len(res.EpochWallSeconds))
	}
	if ti.rig.fd != nil {
		fs := ti.rig.fd.Stats()
		o.check("feed leases = commits = chunks, no stalls",
			fs.Leases == res.Chunks && fs.Commits == res.Chunks && fs.Stalls == 0 && fs.Outstanding == 0,
			"%+v for %d chunks", fs, res.Chunks)
		setFeedStats(o, fs)
	}

	o.set("core.trainer.chunks", float64(res.Chunks), 1)
	o.set("core.trainer.skipped_chunks", float64(res.SkippedChunks), 1)
	o.set("device.launches_per_op", float64(res.Device.Ops)/float64(res.Steps), res.Steps)
	o.set("sim.seconds", res.SimSeconds, 1)
	o.set("sim.over_wall", res.SimSeconds/res.WallSeconds, 1)
	if tr != nil {
		steps, chunks := durations(o.spans, spanStep), durations(o.spans, spanChunk)
		run := o.spans[root-1]
		runS := (run.End - run.Start).Seconds()
		o.set("models.step_ms.p50", 1e3*median(steps), len(steps))
		o.set("models.step.share", sum(steps)/runS, len(steps))
		o.set("data.chunk.us_per_example", 1e6*sum(chunks)/float64(res.Examples), len(chunks))
		o.set("data.chunk.share", sum(chunks)/runS, len(chunks))
		o.set("core.trainer.self_share", selfTime(o.spans, root).Seconds()/runS, 1)
	}
	return o, nil
}

// unitsToTarget returns how many units (epochs, steps) it took loss to
// reach target, interpolating linearly inside the unit that crossed it, or
// NaN if it never did.
func unitsToTarget(loss []float64, target float64) float64 {
	for i, l := range loss {
		if l > target {
			continue
		}
		if i == 0 {
			return 1
		}
		prev := loss[i-1]
		return float64(i) + (prev-target)/(prev-l)
	}
	return math.NaN()
}

func setFeedStats(o *outcome, fs feed.Stats) {
	o.set("feed.leases", float64(fs.Leases), 1)
	o.set("feed.commits", float64(fs.Commits), 1)
	o.set("feed.stalls", float64(fs.Stalls), 1)
	o.set("feed.seeks", float64(fs.Seeks), 1)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
