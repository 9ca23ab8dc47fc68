package phideep_test

import (
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/metrics"
	"phideep/internal/parallel"
	"phideep/internal/rbm"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// TestStepRegionCounts locks what one warm training step submits to a
// pool of two: device launches, parallel regions, and how many of those
// ran inline on the caller because their blocks cost less than a helper's
// wake. The models have the benchmark workloads' shapes. The rbm step is
// small enough that every region runs inline; the large autoencoder's
// GEMMs and its wide elementwise passes still fork, and so do the
// convnet's lowering, pooling and conv GEMMs. Every count must match
// exactly, so an extra region, or one moved across the serial cutoff,
// fails the test. The step runs on the test's goroutine, without the
// trainer's loader.
func TestStepRegionCounts(t *testing.T) {
	cases := []struct {
		name                      string
		build                     func(ctx *blas.Context) (stepper, error)
		launches, regions, inline int64
	}{
		{"train-rbm-small", func(ctx *blas.Context) (stepper, error) {
			m, err := rbm.Build(ctx, rbm.Config{Visible: 144, Hidden: 64, SampleHidden: true, Batch: 32, Seed: 1})
			return unlabeled{m, m}, err
		}, 23, 23, 23},
		{"train-ae-large", func(ctx *blas.Context) (stepper, error) {
			m, err := autoencoder.Build(ctx, autoencoder.Config{Visible: 1024, Hidden: 512,
				Lambda: 1e-4, Beta: 0.1, Rho: 0.05, Batch: 256, Seed: 1})
			return unlabeled{m, m}, err
		}, 25, 35, 4},
		{"train-convnet-feed", func(ctx *blas.Context) (stepper, error) {
			m, err := convnet.Build(ctx, convnet.Config{Side: 16, Filters1: 6, Kernel1: 5, Filters2: 12, Kernel2: 3,
				Pool: 2, Classes: 10, Lambda: 1e-4, Batch: 64, Seed: 1})
			return labeled{m, m}, err
		}, 40, 40, 23},
	}
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	reg := metrics.Default()
	launches := reg.Counter("device.kernel.launches")
	regions := reg.Counter("parallel.regions")
	inline := reg.Counter("parallel.regions.inline")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := parallel.NewPool(2)
			defer pool.Close()
			dev := device.New(sim.XeonPhi5110P(), true, pool)
			m, err := tc.build(core.NewContext(dev, core.Improved, 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Free()
			host := tensor.NewMatrix(m.BatchSize(), m.InputDim()).Randomize(rng.New(3), 0, 1)
			x := dev.MustAlloc(host.Rows, host.Cols)
			defer dev.Free(x)
			dev.CopyIn(x, host, 0)
			labels := tensor.NewMatrix(m.BatchSize(), 10)
			for i := range labels.Rows {
				labels.Set(i, i%10, 1)
			}
			y := dev.MustAlloc(labels.Rows, labels.Cols)
			defer dev.Free(y)
			dev.CopyIn(y, labels, 0)
			m.step(x, y) // warm: arenas and packed panels settle

			l0, r0, i0 := launches.Value(), regions.Value(), inline.Value()
			m.step(x, y)
			l, r, i := launches.Value()-l0, regions.Value()-r0, inline.Value()-i0
			if l != tc.launches || r != tc.regions || i != tc.inline {
				t.Fatalf("one step: %d launches, %d regions, %d inline (%d forked); want %d, %d, %d (%d forked)",
					l, r, i, r-i, tc.launches, tc.regions, tc.inline, tc.regions-tc.inline)
			}
		})
	}
}

// stepper is one training step of either kind of model; y (one-hot
// labels) is ignored by unsupervised ones.
type stepper interface {
	step(x, y *device.Buffer)
	BatchSize() int
	InputDim() int
	Free()
}

type freeable interface{ Free() }

type unlabeled struct {
	core.Trainable
	freeable
}

func (m unlabeled) step(x, _ *device.Buffer) { m.Step(x, 0.1) }

type labeled struct {
	core.LabeledTrainable
	freeable
}

func (m labeled) step(x, y *device.Buffer) { m.StepLabeled(x, y, 0.1) }
