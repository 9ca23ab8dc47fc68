package cluster

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// raceEnabled is set under the race detector, which drops a share of
// sync.Pool Puts on purpose, so pooled kernel scratch allocates there.
var raceEnabled bool

// serialReference is the plain loop a clean numeric Step must equal bit
// for bit: the replicas New builds, stepped one after another in node
// order on their slices of x, and every SyncEvery steps averaged the
// serial way (node 0's copy, += the others in id order, *= 1/N) and
// uploaded back. It returns each step's mean loss and the final
// parameters.
func serialReference(t *testing.T, cfg Config, lvl core.OptLevel, x *tensor.Matrix, steps int, lr float64, seed uint64) ([]float64, *autoencoder.Params) {
	t.Helper()
	perNode := cfg.GlobalBatch / cfg.Nodes
	model := cfg.Model
	model.Batch, model.Seed = perNode, seed
	ms := make([]*autoencoder.Model, cfg.Nodes)
	for i := range ms {
		ctx := core.NewContext(device.New(sim.XeonE5620Dual(), true, nil), lvl, 0, seed+uint64(i))
		m, err := autoencoder.Build(ctx, model)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Free()
		ms[i] = m
	}
	var losses []float64
	for s := 0; s < steps; s++ {
		sum := 0.0
		for i, m := range ms {
			dev := m.Ctx.Dev
			shard := dev.MustAlloc(perNode, model.Visible)
			dev.CopyIn(shard, x.RowsView(i*perNode, (i+1)*perNode).Contiguous(), 0)
			sum += m.Step(shard, lr)
			dev.Free(shard)
		}
		losses = append(losses, sum/float64(len(ms)))
		if (s+1)%cfg.SyncEvery != 0 {
			continue
		}
		avg := ms[0].Download()
		for _, m := range ms[1:] {
			p := m.Download()
			for k, d := range flat(avg) {
				for j, v := range flat(p)[k] {
					d[j] += v
				}
			}
		}
		inv := 1 / float64(len(ms))
		for _, d := range flat(avg) {
			for j := range d {
				d[j] *= inv
			}
		}
		for _, m := range ms {
			m.Upload(avg)
		}
	}
	return losses, ms[0].Download()
}

// TestConcurrentStepMatchesSerialReference: the concurrent Step and the
// striped average give the serial loop's losses and parameters bit for
// bit, whether the node goroutines share one CPU or spread over four.
func TestConcurrentStepMatchesSerialReference(t *testing.T) {
	const steps = 6
	for _, procs := range []int{1, 4} {
		for _, syncEvery := range []int{1, 3} {
			t.Run(fmt.Sprintf("procs%d/sync%d", procs, syncEvery), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := Config{
					Model:       autoencoder.Config{Visible: 24, Hidden: 8, Lambda: 1e-4, Beta: 0.1, Rho: 0.05},
					Nodes:       4,
					GlobalBatch: 16,
					SyncEvery:   syncEvery,
					Net:         GigabitEthernet(),
				}
				x := lowRank(rng.New(5), cfg.GlobalBatch, cfg.Model.Visible)
				cl, err := New(sim.XeonE5620Dual(), core.Improved, cfg, true, 3)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Free()
				wantLoss, want := serialReference(t, cfg, core.Improved, x, steps, 0.5, 3)
				for s := 0; s < steps; s++ {
					if got := cl.Step(x, 0.5); math.Float64bits(got) != math.Float64bits(wantLoss[s]) {
						t.Fatalf("step %d: loss %v, serial loop %v", s, got, wantLoss[s])
					}
				}
				if !paramsEqual(cl.Download(), want) {
					t.Fatal("concurrent cluster's parameters differ from the serial loop's")
				}
			})
		}
	}
}

// TestStepPanicSurfacesOnCaller: a panic on a node's goroutine — here a
// wrongly shaped x, which fails every node's shard transfer — reaches the
// goroutine that called Step, where recover still catches it.
func TestStepPanicSurfacesOnCaller(t *testing.T) {
	cfg := smallCfg(3, 1)
	cl, err := New(sim.XeonE5620Dual(), core.OpenMPMKL, cfg, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Free()
	bad := tensor.NewMatrix(cfg.GlobalBatch, cfg.Model.Visible+1)
	r := func() (r any) {
		defer func() { r = recover() }()
		cl.Step(bad, 0.1)
		return nil
	}()
	if !strings.Contains(fmt.Sprint(r), "CopyIn shape mismatch") {
		t.Fatalf("recovered %v, want the shard transfer's shape mismatch", r)
	}
}

// stepAllocBudget bounds the heap bytes of one warm numeric step: the node
// goroutines, closures and small bookkeeping fit; one host copy of the
// test model's parameters (2·256·128 float64s, 512 KiB) does not.
const stepAllocBudget = 256 << 10

// TestWarmStepAllocationBudget: with the shards and the barrier's host
// copies allocated at New, a warm 4-node step that averages stays under
// stepAllocBudget, on the sliced-input path and on the shared feed. The
// collector is held off so the kernels' pooled scratch survives the runs.
func TestWarmStepAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, path := range []string{"sliced", "feed"} {
		t.Run(path, func(t *testing.T) {
			cfg := Config{
				Model:       autoencoder.Config{Visible: 256, Hidden: 128, Lambda: 1e-5},
				Nodes:       4,
				GlobalBatch: 64,
				SyncEvery:   1,
				Net:         GigabitEthernet(),
			}
			x := lowRank(rng.New(2), cfg.GlobalBatch, cfg.Model.Visible)
			if path == "feed" {
				cfg.Feed = newClusterFeed(t, cfg, 4*cfg.GlobalBatch, false)
				x = nil
			}
			cl, err := New(sim.XeonE5620Dual(), core.Improved, cfg, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Free()
			for range 3 {
				cl.Step(x, 0.1)
			}
			const steps = 4
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range steps {
				cl.Step(x, 0.1)
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / steps
			if per >= stepAllocBudget {
				t.Fatalf("a warm 4-node step allocates %d B, budget %d B", per, stepAllocBudget)
			}
			t.Logf("%d B per warm step", per)
		})
	}
}
