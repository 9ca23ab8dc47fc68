package phideep_test

import (
	"strings"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/convnet"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/mlp"
	"phideep/internal/rbm"
	"phideep/internal/sim"
)

// freer adapts a model constructor's result to its Free method.
func freer[M interface{ Free() }](m M, err error) (func(), error) {
	if err != nil {
		return nil, err
	}
	return m.Free, nil
}

// TestConstructionOutOfMemoryLeavesNothing sweeps the device memory cap
// across every allocation boundary of each model family's footprint, for
// both the training (Build) and the forward-only (NewInference) model.
// Every buffer is a whole number of float64s, so stepping the cap by 8
// bytes from 0 visits each boundary and both sides of it. Below the
// footprint construction must fail with the out-of-memory error and leave
// nothing allocated; at the footprint it succeeds, Free releases every
// byte, and a second Free is harmless. The configurations switch on every
// optional buffer (momentum, corruption, sparsity, persistent chains).
func TestConstructionOutOfMemoryLeavesNothing(t *testing.T) {
	ae := autoencoder.Config{Visible: 6, Hidden: 3, Beta: 0.1, Rho: 0.05, Momentum: 0.5, Corruption: 0.2, Batch: 2}
	tied := ae
	tied.Tied = true
	rb := rbm.Config{Visible: 6, Hidden: 3, Momentum: 0.5, SparsityTarget: 0.1, SparsityCost: 0.1,
		Persistent: true, Batch: 2}
	ml := mlp.Config{Sizes: []int{6, 4, 3}, Momentum: 0.5, Batch: 2}
	cv := convnet.Config{Side: 4, Filters1: 2, Kernel1: 3, Filters2: 2, Kernel2: 1, Pool: 2, Classes: 2,
		Momentum: 0.5, Batch: 2}
	jobs := []struct {
		name  string
		build func(ctx *blas.Context) (func(), error)
	}{
		{"ae/Build", func(ctx *blas.Context) (func(), error) { return freer(autoencoder.Build(ctx, ae)) }},
		{"ae/NewInference", func(ctx *blas.Context) (func(), error) { return freer(autoencoder.NewInference(ctx, ae, 3, nil)) }},
		{"ae-tied/Build", func(ctx *blas.Context) (func(), error) { return freer(autoencoder.Build(ctx, tied)) }},
		{"ae-tied/NewInference", func(ctx *blas.Context) (func(), error) { return freer(autoencoder.NewInference(ctx, tied, 3, nil)) }},
		{"rbm/Build", func(ctx *blas.Context) (func(), error) { return freer(rbm.Build(ctx, rb)) }},
		{"rbm/NewInference", func(ctx *blas.Context) (func(), error) { return freer(rbm.NewInference(ctx, rb, 3, nil)) }},
		{"mlp/Build", func(ctx *blas.Context) (func(), error) { return freer(mlp.Build(ctx, ml)) }},
		{"mlp/NewInference", func(ctx *blas.Context) (func(), error) { return freer(mlp.NewInference(ctx, ml, 3, nil)) }},
		{"convnet/Build", func(ctx *blas.Context) (func(), error) { return freer(convnet.Build(ctx, cv)) }},
		{"convnet/NewInference", func(ctx *blas.Context) (func(), error) { return freer(convnet.NewInference(ctx, cv, 3, nil)) }},
	}
	for _, job := range jobs {
		t.Run(job.name, func(t *testing.T) {
			failures := 0
			for limit := int64(0); ; limit += 8 {
				if limit > 1<<20 {
					t.Fatal("no success below 1 MiB")
				}
				arch := *sim.XeonPhi5110P()
				arch.GlobalMemBytes = limit
				dev := device.New(&arch, true, nil)
				free, err := job.build(blas.NewContext(dev, kernels.Naive, 1))
				if err != nil {
					if !strings.Contains(err.Error(), "out of global memory") {
						t.Fatalf("cap %d B: %v", limit, err)
					}
					if dev.Allocated() != 0 {
						t.Fatalf("cap %d B: failed construction left %d B allocated", limit, dev.Allocated())
					}
					failures++
					continue
				}
				if dev.Allocated() != limit {
					t.Fatalf("first success at cap %d B holds %d B: the sweep skipped a boundary", limit, dev.Allocated())
				}
				free()
				if dev.Allocated() != 0 {
					t.Fatalf("Free left %d B allocated", dev.Allocated())
				}
				free()
				if failures == 0 {
					t.Fatal("construction never failed")
				}
				return
			}
		})
	}
}
