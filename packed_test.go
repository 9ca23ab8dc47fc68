package phideep_test

import (
	"fmt"
	"math"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/metrics"
	"phideep/internal/mlp"
	"phideep/internal/parallel"
	"phideep/internal/rbm"
	"phideep/internal/serve"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// packedReplica is one model family's forward-only surface: run the
// family's inference ops on x, or upload the parameters drawn from seed.
// served is the same model (the parameters drawn from its config's seed)
// for the server, and servedOps the server's names for ops' outputs.
type packedReplica struct {
	ops       func(x *device.Buffer) []*device.Buffer
	upload    func(seed uint64)
	free      func()
	served    *serve.Model
	servedOps []serve.Op
}

// TestInferenceReplicasPackOnce: a model built by NewInference reads its
// weights from pack-once handles, and a training model (Build) never
// packs, yet both answer with the same bits and charge the same simulated
// launches — on full and partial batches, at Baseline and Improved, with
// no pool and a pool of two, and after Upload replaces the weights (a
// stale handle would keep answering with the old ones). The host replica
// an F64 server builds must answer with the device forward's bits too.
// Shapes cross the packed GEMM's k-panel edge.
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
				upload:    func(seed uint64) { m.Upload(autoencoder.NewParams(cfg, seed)) },
				free:      m.Free,
				served:    serve.Autoencoder(cfg, nil),
				servedOps: []serve.Op{serve.OpEncode, serve.OpReconstruct},
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
				ops:       func(x *device.Buffer) []*device.Buffer { return []*device.Buffer{m.Reconstruct(x), m.Encode(x)} },
				upload:    func(seed uint64) { m.Upload(rbm.NewParams(rb, seed)) },
				free:      m.Free,
				served:    serve.RBM(rb, nil),
				servedOps: []serve.Op{serve.OpReconstruct, serve.OpEncode},
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
				ops:       func(x *device.Buffer) []*device.Buffer { return []*device.Buffer{m.Infer(x)} },
				upload:    func(seed uint64) { m.Upload(mlp.NewParams(ml, seed)) },
				free:      m.Free,
				served:    serve.MLP(ml, nil),
				servedOps: []serve.Op{serve.OpPredict},
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
				ops:       func(x *device.Buffer) []*device.Buffer { return []*device.Buffer{m.Infer(x)} },
				upload:    func(seed uint64) { m.Upload(convnet.NewParams(cv, seed)) },
				free:      m.Free,
				served:    serve.Convnet(cv, nil),
				servedOps: []serve.Op{serve.OpPredict},
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
			for _, poolWorkers := range []int{0, 2} {
				name := fmt.Sprintf("%s/%v/pool%d", fam.name, lvl, poolWorkers)
				var pool *parallel.Pool
				if poolWorkers > 0 {
					pool = parallel.NewPool(poolWorkers)
				}
				var runs [2]run
				for i, infer := range []bool{false, true} {
					dev := device.New(sim.XeonPhi5110P(), true, pool)
					ctx := core.NewContext(dev, lvl, 0, 1)
					r, dim, err := fam.build(ctx, infer)
					if err != nil {
						t.Fatal(err)
					}
					host := tensor.NewMatrix(batch, dim).Randomize(ctx.RNG, 0, 1)
					x := dev.MustAlloc(batch, dim)
					dev.CopyIn(x, host, 0)
					before := prepacked.Value()
					for round, seed := range []uint64{0, 11} {
						if round > 0 {
							r.upload(seed)
						}
						for _, rows := range []int{batch, part, batch} {
							for _, out := range r.ops(x.Head(rows)) {
								m := tensor.NewMatrix(out.Rows, out.Cols)
								dev.CopyOut(out, m)
								runs[i].outs = append(runs[i].outs, m)
							}
						}
					}
					runs[i].prepacked = prepacked.Value() - before
					runs[i].seconds, runs[i].launches = dev.Now(), dev.Stats().Ops
					if infer {
						checkServedF64(t, name, r, lvl, poolWorkers, host, runs[i].outs)
					}
					r.free()
				}
				if pool != nil {
					pool.Close()
				}
				train, infer := runs[0], runs[1]
				if train.prepacked != 0 || infer.prepacked == 0 {
					t.Fatalf("%s: prepacked GEMMs %d (training) and %d (inference), want 0 and > 0", name, train.prepacked, infer.prepacked)
				}
				if train.seconds != infer.seconds || train.launches != infer.launches {
					t.Fatalf("%s: inference model charged %v s in %d launches, training model %v s in %d",
						name, infer.seconds, infer.launches, train.seconds, train.launches)
				}
				for k, want := range train.outs {
					checkBits(t, fmt.Sprintf("%s: output %d from packed weights", name, k), infer.outs[k].Data, want.Data)
				}
			}
		}
	}
}

// checkServedF64 serves r's model at F64 on one worker with MaxBatch rows
// and compares its answers bitwise with the device forward's: the rows of
// x, then the first part of them, swept as one chunk so the server runs a
// full batch and a partial one. dev holds the device outputs of the first
// round, per row count (full, partial) and then per op.
func checkServedF64(t *testing.T, name string, r packedReplica, lvl core.OptLevel, poolWorkers int, x *tensor.Matrix, dev []*tensor.Matrix) {
	t.Helper()
	full, part := x.Rows, dev[len(r.servedOps)].Rows
	rows := tensor.NewMatrix(full+part, x.Cols)
	for i := 0; i < rows.Rows; i++ {
		copy(rows.RowView(i), x.RowView(i%full))
	}
	srv, err := serve.New(r.served, serve.Config{Level: lvl, Workers: 1, PoolWorkers: poolWorkers, MaxBatch: full, Precision: serve.F64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	plan, err := data.PlanChunks(data.PlanRequest{SourceLen: rows.Rows, Batch: rows.Rows, ChunkExamples: rows.Rows})
	if err != nil {
		t.Fatal(err)
	}
	f, err := feed.New(data.InMemory{X: rows}, feed.Config{Plan: plan, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	fcs := make([]*feed.Consumer, len(r.servedOps))
	for k, op := range r.servedOps {
		if fcs[k], err = f.Subscribe(op.String()); err != nil {
			t.Fatal(err)
		}
	}
	for k, op := range r.servedOps {
		fc := fcs[k]
		got := make([][]float64, rows.Rows)
		if _, err := srv.ScoreFeed(op, fc, func(i int, scores []float64) { got[i] = scores }); err != nil {
			t.Fatalf("%s: served %s: %v", name, op, err)
		}
		want := append(append([]float64(nil), dev[k].Data...), dev[len(r.servedOps)+k].Data...)
		var flat []float64
		for _, row := range got {
			flat = append(flat, row...)
		}
		checkBits(t, fmt.Sprintf("%s: served %s", name, op), flat, want)
	}
	if st := srv.Stats(); st.Batches != int64(2*len(r.servedOps)) {
		t.Fatalf("%s: %d batches, want a full and a partial one per op", name, st.Batches)
	}
}

// checkBits fails the test unless got and want hold the same float64 bits.
func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for e := range want {
		if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
			t.Fatalf("%s: element %d = %v, want %v", what, e, got[e], want[e])
		}
	}
}
