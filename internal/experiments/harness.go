package experiments

import (
	"fmt"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/rbm"
	"phideep/internal/sim"
)

// ModelKind selects the unsupervised building block under test.
type ModelKind string

const (
	// AE is the Sparse Autoencoder trained with back-propagation.
	AE ModelKind = "autoencoder"
	// RBM is the Restricted Boltzmann Machine trained with CD-1.
	RBM ModelKind = "rbm"
)

// Job describes one timed training run on one simulated platform. Every
// figure/table runner is a sweep over Jobs.
type Job struct {
	Arch  *sim.Arch
	Level core.OptLevel
	// Cores limits the physical cores (0 = all; Table I's right column
	// uses 30).
	Cores int
	// Vector force-overrides VPU vectorization when non-nil (ablations).
	Vector *bool
	// Fuse/Concurrent force-override the Improved-level flags when
	// non-nil (ablations).
	Fuse, Concurrent *bool
	// ThreadsPerCore limits hardware threads per core (0 = arch max).
	ThreadsPerCore int

	Model           ModelKind
	Visible, Hidden int
	Batch           int
	DatasetExamples int
	Epochs          int // mutually exclusive with Iterations
	Iterations      int
	ChunkExamples   int
	BufferDepth     int
	Prefetch        bool
	DisableSampling bool // RBM mean-field mode
	Seed            uint64
}

// Run executes the job on a fresh model-only device and returns the
// training result (simulated seconds et al.).
func (j Job) Run() (*core.Result, error) {
	dev := device.New(j.Arch, false, nil)
	ctx := core.NewContext(dev, j.Level, j.Cores, j.Seed+1)
	if j.Vector != nil {
		ctx.Vector = *j.Vector
	}
	if j.Fuse != nil {
		ctx.AutoFuse = *j.Fuse
	}
	if j.Concurrent != nil {
		ctx.AutoConcurrent = *j.Concurrent
	}
	if j.ThreadsPerCore > 0 {
		ctx.ThreadsPerCore = j.ThreadsPerCore
	}

	var model core.Trainable
	switch j.Model {
	case AE:
		m, err := autoencoder.Build(ctx, autoencoder.Config{
			Visible: j.Visible, Hidden: j.Hidden,
			Lambda: 1e-4, Beta: 0.1, Rho: 0.05,
			Batch: j.Batch, Seed: j.Seed,
		})
		if err != nil {
			return nil, err
		}
		defer m.Free()
		model = m
	case RBM:
		m, err := rbm.Build(ctx, rbm.Config{
			Visible: j.Visible, Hidden: j.Hidden,
			SampleHidden: !j.DisableSampling,
			Batch:        j.Batch, Seed: j.Seed,
		})
		if err != nil {
			return nil, err
		}
		defer m.Free()
		model = m
	default:
		return nil, fmt.Errorf("experiments: unknown model kind %q", j.Model)
	}

	depth := j.BufferDepth
	if depth == 0 {
		depth = 2
	}
	tr := &core.Trainer{Dev: dev, Cfg: core.TrainConfig{
		Epochs: j.Epochs, Iterations: j.Iterations,
		LR:            0.1,
		ChunkExamples: j.ChunkExamples,
		BufferDepth:   depth,
		Prefetch:      j.Prefetch,
	}}
	return tr.Run(model, data.Null{D: j.Visible, N: j.DatasetExamples})
}

// MustRun is Run for sweep code where any failure is a programming error.
func (j Job) MustRun() *core.Result {
	res, err := j.Run()
	if err != nil {
		panic(err)
	}
	return res
}

// phiImproved returns the fully-optimized coprocessor configuration used
// for every "Intel Xeon Phi" series in Figs. 7–10.
func phiImproved() (*sim.Arch, core.OptLevel) {
	return sim.XeonPhi5110P(), core.Improved
}

// hostCore returns the "single CPU core on host" comparator of Figs. 7–9:
// the same fully optimized algorithm (blocked, vectorized kernels) on one
// Xeon E5620 core.
func hostCore() (*sim.Arch, core.OptLevel) {
	return sim.XeonE5620Core(), core.OpenMPMKL
}
