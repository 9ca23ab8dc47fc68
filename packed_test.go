package phideep_test

import (
	"math"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/metrics"
	"phideep/internal/mlp"
	"phideep/internal/rbm"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// packedReplica is one model family's forward-only surface: run the
// family's inference ops on x, or upload the parameters drawn from seed.
type packedReplica struct {
	ops    func(x *device.Buffer) []*device.Buffer
	upload func(seed uint64)
	free   func()
}

// TestInferenceReplicasPackOnce: a model built by NewInference reads its
// weights from pack-once handles, and a training model (Build) never
// packs, yet both answer with the same bits and charge the same simulated
// launches — on full and partial batches, at Baseline and Improved, and
// after Upload replaces the weights (a stale handle would keep answering
// with the old ones). Shapes cross the packed GEMM's k-panel edge.
func TestInferenceReplicasPackOnce(t *testing.T) {
	const batch, part = 5, 3
	ae := autoencoder.Config{Visible: 300, Hidden: 20, Batch: batch, Seed: 3}
	tied := ae
	tied.Tied = true
	rb := rbm.Config{Visible: 270, Hidden: 17, Batch: batch, Seed: 4}
	ml := mlp.Config{Sizes: []int{280, 30, 10}, Batch: batch, Seed: 5}
	cv := convnet.Config{Side: 8, Filters1: 3, Kernel1: 3, Filters2: 4, Kernel2: 3, Pool: 2, Classes: 10, Batch: batch, Seed: 6}
	aeFamily := func(cfg autoencoder.Config) func(*blas.Context, bool) (packedReplica, int, error) {
		return func(ctx *blas.Context, infer bool) (packedReplica, int, error) {
			build := autoencoder.Build
			if infer {
				build = func(ctx *blas.Context, cfg autoencoder.Config) (*autoencoder.Model, error) {
					return autoencoder.NewInference(ctx, cfg, cfg.Batch, nil)
				}
			}
			m, err := build(ctx, cfg)
			if err != nil {
				return packedReplica{}, 0, err
			}
			return packedReplica{
				ops: func(x *device.Buffer) []*device.Buffer {
					y := m.Encode(x)
					yc := ctx.Dev.MustAlloc(y.Rows, y.Cols) // Reconstruct overwrites y's buffer
					ctx.Copy(yc, y)
					return []*device.Buffer{yc, m.Reconstruct(x)}
				},
				upload: func(seed uint64) { m.Upload(autoencoder.NewParams(cfg, seed)) },
				free:   m.Free,
			}, cfg.Visible, nil
		}
	}
	families := []struct {
		name  string
		build func(ctx *blas.Context, infer bool) (packedReplica, int, error)
	}{
		{"ae", aeFamily(ae)},
		{"ae-tied", aeFamily(tied)},
		{"rbm", func(ctx *blas.Context, infer bool) (packedReplica, int, error) {
			var m *rbm.Model
			var err error
			if infer {
				m, err = rbm.NewInference(ctx, rb, batch, nil)
			} else {
				m, err = rbm.Build(ctx, rb)
			}
			if err != nil {
				return packedReplica{}, 0, err
			}
			return packedReplica{
				ops:    func(x *device.Buffer) []*device.Buffer { return []*device.Buffer{m.Reconstruct(x), m.Encode(x)} },
				upload: func(seed uint64) { m.Upload(rbm.NewParams(rb, seed)) },
				free:   m.Free,
			}, rb.Visible, nil
		}},
		{"mlp", func(ctx *blas.Context, infer bool) (packedReplica, int, error) {
			var m *mlp.Model
			var err error
			if infer {
				m, err = mlp.NewInference(ctx, ml, batch, nil)
			} else {
				m, err = mlp.Build(ctx, ml)
			}
			if err != nil {
				return packedReplica{}, 0, err
			}
			return packedReplica{
				ops:    func(x *device.Buffer) []*device.Buffer { return []*device.Buffer{m.Infer(x)} },
				upload: func(seed uint64) { m.Upload(mlp.NewParams(ml, seed)) },
				free:   m.Free,
			}, ml.Sizes[0], nil
		}},
		{"convnet", func(ctx *blas.Context, infer bool) (packedReplica, int, error) {
			var m *convnet.Model
			var err error
			if infer {
				m, err = convnet.NewInference(ctx, cv, batch, nil)
			} else {
				m, err = convnet.Build(ctx, cv)
			}
			if err != nil {
				return packedReplica{}, 0, err
			}
			return packedReplica{
				ops:    func(x *device.Buffer) []*device.Buffer { return []*device.Buffer{m.Infer(x)} },
				upload: func(seed uint64) { m.Upload(convnet.NewParams(cv, seed)) },
				free:   m.Free,
			}, cv.InputDim(), nil
		}},
	}
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	prepacked := metrics.Default().Counter("kernels.gemm.prepacked")

	type run struct {
		outs      []*tensor.Matrix
		seconds   float64
		launches  int
		prepacked int64
	}
	for _, fam := range families {
		for _, lvl := range []core.OptLevel{core.Baseline, core.Improved} {
			var runs [2]run
			for i, infer := range []bool{false, true} {
				dev := device.New(sim.XeonPhi5110P(), true, nil)
				ctx := core.NewContext(dev, lvl, 0, 1)
				r, dim, err := fam.build(ctx, infer)
				if err != nil {
					t.Fatal(err)
				}
				x := dev.MustAlloc(batch, dim)
				dev.CopyIn(x, tensor.NewMatrix(batch, dim).Randomize(ctx.RNG, 0, 1), 0)
				before := prepacked.Value()
				for round, seed := range []uint64{0, 11} {
					if round > 0 {
						r.upload(seed)
					}
					for _, rows := range []int{batch, part, batch} {
						for _, out := range r.ops(x.Head(rows)) {
							host := tensor.NewMatrix(out.Rows, out.Cols)
							dev.CopyOut(out, host)
							runs[i].outs = append(runs[i].outs, host)
						}
					}
				}
				runs[i].prepacked = prepacked.Value() - before
				runs[i].seconds, runs[i].launches = dev.Now(), dev.Stats().Ops
				r.free()
			}
			train, infer := runs[0], runs[1]
			name := fam.name + "/" + lvl.String()
			if train.prepacked != 0 || infer.prepacked == 0 {
				t.Fatalf("%s: prepacked GEMMs %d (training) and %d (inference), want 0 and > 0", name, train.prepacked, infer.prepacked)
			}
			if train.seconds != infer.seconds || train.launches != infer.launches {
				t.Fatalf("%s: inference model charged %v s in %d launches, training model %v s in %d",
					name, infer.seconds, infer.launches, train.seconds, train.launches)
			}
			for k, want := range train.outs {
				got := infer.outs[k]
				for e := range want.Data {
					if math.Float64bits(got.Data[e]) != math.Float64bits(want.Data[e]) {
						t.Fatalf("%s: output %d element %d = %v from packed weights, %v from the training model",
							name, k, e, got.Data[e], want.Data[e])
					}
				}
			}
		}
	}
}
