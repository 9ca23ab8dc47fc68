package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/kernels"
	"phideep/internal/mlp"
	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// probeBudget is how long each probe times its function in a run of the
// nominal length; like the operation counts it scales with -seconds. A
// probe calls one layer's public function directly at a workload's shapes;
// the suite is the same on every workload, so a layer's number can be read
// next to any end-to-end metric.
const probeBudget = 100 * time.Millisecond

// timeCalls returns the median seconds per call of fn over samples of
// about a millisecond each, and the number of samples.
func timeCalls(budget time.Duration, fn func()) (perCall float64, samples int) {
	fn() // first call pays for lazily grown scratch
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	reps := 1
	if one < time.Millisecond {
		reps = int(time.Millisecond/(one+1)) + 1
	}
	var per []float64
	for start := time.Now(); time.Since(start) < budget || len(per) < 5; {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per = append(per, time.Since(t0).Seconds()/float64(reps))
	}
	return median(per), len(per)
}

// gemmCase is one GEMM call shape: op(A) is m x k, op(B) is k x n.
type gemmCase struct {
	m, k, n        int
	transA, transB bool
}

func dims(rows, cols int, trans bool) (int, int) {
	if trans {
		return cols, rows
	}
	return rows, cols
}

// probeGemm64 times kernels.Gemm over the cases and returns the GFLOP/s of
// the set: total flops over the sum of the median call times.
func probeGemm64(budget time.Duration, pool *parallel.Pool, r *rng.RNG, cases []gemmCase) (gflops float64, samples int) {
	flops, secs := 0.0, 0.0
	for _, c := range cases {
		ar, ac := dims(c.m, c.k, c.transA)
		br, bc := dims(c.k, c.n, c.transB)
		a := tensor.NewMatrix(ar, ac).Randomize(r, -1, 1)
		b := tensor.NewMatrix(br, bc).Randomize(r, -1, 1)
		out := tensor.NewMatrix(c.m, c.n)
		s, n := timeCalls(budget/time.Duration(len(cases)), func() {
			kernels.Gemm(pool, kernels.ParallelBlocked, c.transA, c.transB, 1, a, b, 0, out)
		})
		flops += 2 * float64(c.m) * float64(c.k) * float64(c.n)
		secs += s
		samples += n
	}
	return flops / secs / 1e9, samples
}

func probeGemm32(budget time.Duration, pool *parallel.Pool, r *rng.RNG, cases []gemmCase) (gflops float64, samples int) {
	flops, secs := 0.0, 0.0
	for _, c := range cases {
		a := tensor.NewMatrix(c.m, c.k).Randomize(r, -1, 1).To32()
		b := tensor.NewMatrix(c.k, c.n).Randomize(r, -1, 1).To32()
		out := tensor.NewMatrix32(c.m, c.n)
		s, n := timeCalls(budget/time.Duration(len(cases)), func() {
			kernels.Gemm32(pool, kernels.ParallelBlocked, false, false, 1, a, b, 0, out)
		})
		flops += 2 * float64(c.m) * float64(c.k) * float64(c.n)
		secs += s
		samples += n
	}
	return flops / secs / 1e9, samples
}

// three returns the NN, NT and TN forms of one m x k x n product, the
// forward, data-gradient and weight-gradient calls of a dense layer.
func three(m, k, n int) []gemmCase {
	return []gemmCase{{m, k, n, false, false}, {m, n, k, false, true}, {k, m, n, true, false}}
}

// runProbes times every layer's public functions and stores the results
// in o under the per-layer names.
func runProbes(o *outcome, cfg runCfg) error {
	pool := parallel.NewPool(cfg.procs)
	defer pool.Close()
	r := rng.New(cfg.seed)
	budget := time.Duration(cfg.scale * float64(probeBudget))
	const lvl = kernels.ParallelBlocked
	put := func(name string, scale float64) func(float64, int) {
		return func(v float64, n int) { o.set(name, v*scale, n) }
	}

	// kernels: GEMM at each workload's shapes.
	put("kernels.gemm64.large.gflops", 1)(probeGemm64(budget, pool, r, three(256, 1024, 512)))
	put("kernels.gemm64.small.gflops", 1)(probeGemm64(budget, pool, r, three(32, 144, 64)))
	cc := convCfg(64, cfg.seed)
	c1, c2 := cc.Conv1Shape(), cc.Conv2Shape()
	m1, m2 := 64*c1.OutH()*c1.OutW(), 64*c2.OutH()*c2.OutW()
	put("kernels.gemm64.conv.gflops", 1)(probeGemm64(budget, pool, r, []gemmCase{
		{m1, c1.ColK(), c1.F, false, false},
		{m2, c2.ColK(), c2.F, false, false},
		{m2, c2.F, c2.ColK(), false, true},
		{c2.ColK(), m2, c2.F, true, false},
		{64, cc.FCInputDim(), cc.Classes, false, false},
	}))
	put("kernels.gemm32.mlp.gflops", 1)(probeGemm32(budget, pool, r, []gemmCase{
		{m: bulkMaxBatch, k: bulkSizes[0], n: bulkSizes[1]}, {m: bulkMaxBatch, k: bulkSizes[1], n: bulkSizes[2]}}))

	// kernels: convolution lowering and pooling at conv1's shapes.
	x := tensor.NewMatrix(64, c1.InDim()).Randomize(r, 0, 1)
	cols := tensor.NewMatrix(m1, c1.ColK())
	put("kernels.im2col.us_per_call", 1e6)(timeCalls(budget, func() { kernels.Im2col(pool, lvl, c1, 64, x, cols) }))
	dx := tensor.NewMatrix(64, c1.InDim())
	put("kernels.col2im.us_per_call", 1e6)(timeCalls(budget, func() { kernels.Col2im(pool, lvl, c1, 64, cols, dx) }))
	p1 := cc.Pool1Shape()
	act := tensor.NewMatrix(64, p1.InDim()).Randomize(r, 0, 1)
	pooled, arg := tensor.NewMatrix(64, p1.OutDim()), tensor.NewMatrix(64, p1.OutDim())
	put("kernels.pool.us_per_call", 1e6)(timeCalls(budget, func() { kernels.MaxPool(pool, lvl, p1, 64, act, pooled, arg) }))
	dact := tensor.NewMatrix(64, p1.InDim())
	put("kernels.poolbwd.us_per_call", 1e6)(timeCalls(budget, func() { kernels.MaxPoolBackward(pool, lvl, p1, 64, pooled, arg, dact) }))

	// kernels: the RBM's elementwise ops on a 32 x 64 hidden layer.
	h := tensor.NewMatrix(32, 64).Randomize(r, -2, 2)
	prob := tensor.NewMatrix(32, 64)
	elems := float64(32 * 64)
	put("kernels.sigmoid.ns_per_elem", 1e9/elems)(timeCalls(budget, func() { kernels.Sigmoid(pool, lvl, prob, h) }))
	put("kernels.sample.ns_per_elem", 1e9/elems)(timeCalls(budget, func() { kernels.SampleBernoulli(pool, lvl, h, prob, r) }))

	// parallel: an empty region costs one fork and one join.
	w := pool.Workers()
	put("parallel.forkjoin.static.us", 1e6)(timeCalls(budget, func() { pool.For(w, parallel.Static, 1, func(lo, hi int) {}) }))
	put("parallel.forkjoin.dynamic.us", 1e6)(timeCalls(budget, func() { pool.For(w, parallel.Dynamic, 1, func(lo, hi int) {}) }))

	// device: launch bookkeeping and staging copies, chunk- and batch-sized.
	dev := device.New(sim.XeonPhi5110P(), true, pool)
	put("device.exec.us_per_launch", 1e6)(timeCalls(budget, func() {
		dev.Exec(sim.Op{Kind: sim.OpElem, Elems: 1, Level: lvl}, nil, nil, func() {})
	}))
	for _, sz := range []struct {
		name string
		rows int
	}{{"chunk", chunkExamples}, {"batch", openMaxBatch}} {
		host := tensor.NewMatrix(sz.rows, openVisible).Randomize(r, 0, 1)
		buf := dev.MustAlloc(sz.rows, openVisible)
		perMiB := 1e6 / (float64(buf.Bytes()) / (1 << 20))
		put("device.copyin."+sz.name+".us_per_mb", perMiB)(timeCalls(budget, func() { dev.CopyIn(buf, host, 0) }))
		put("device.copyout."+sz.name+".us_per_mb", perMiB)(timeCalls(budget, func() { dev.CopyOut(buf, host) }))
		dev.Free(buf)
	}

	// blas: a 1 x 1 GEMM is all op construction and dispatch.
	ctx := core.NewContext(dev, core.Improved, 0, cfg.seed)
	one := dev.MustAlloc(1, 1)
	put("blas.dispatch.us_per_op", 1e6)(timeCalls(budget, func() { ctx.Gemm(false, false, 1, one, one, 0, one) }))

	// models: one forward pass at each serving workload's batch size.
	acfg := openAEConfig(cfg.seed)
	ae, err := autoencoder.NewInference(ctx, acfg, openMaxBatch, nil)
	if err != nil {
		return err
	}
	defer ae.Free()
	xb := dev.MustAlloc(openMaxBatch, openVisible)
	dev.CopyIn(xb, tensor.NewMatrix(openMaxBatch, openVisible).Randomize(r, 0, 1), 0)
	put("models.forward_ms_per_batch.f64", 1e3)(timeCalls(budget, func() { ae.Encode(xb) }))
	mcfg := mlp.Config{Sizes: bulkSizes, Seed: cfg.seed}
	// The bulk server runs its replicas without a pool (PoolWorkers 0).
	m32 := mlp.NewInference32(nil, core.Improved.KernelLevel(), mcfg, bulkMaxBatch, mlp.NewParams(mcfg, cfg.seed).To32())
	x32 := tensor.NewMatrix(bulkMaxBatch, bulkSizes[0]).Randomize(r, 0, 1).To32()
	put("models.forward_ms_per_batch.f32", 1e3)(timeCalls(budget, func() { m32.Infer(x32) }))

	// core: encoding and durably writing the cluster's lead checkpoint.
	var blob bytes.Buffer
	full, err := autoencoder.Build(ctx, autoencoder.Config{Visible: openVisible, Hidden: openHidden, Batch: 64, Seed: cfg.seed})
	if err != nil {
		return err
	}
	err = full.SaveState(&blob)
	full.Free()
	if err != nil {
		return err
	}
	ck := &core.Checkpoint{Step: 1, Chunk: 1, Examples: 64, Model: blob.Bytes()}
	put("core.checkpoint.encode_ms", 1e3)(timeCalls(budget, func() { core.EncodeCheckpoint(ck) }))
	path := filepath.Join(cfg.outDir, "probe.phck")
	defer os.Remove(path)
	var werr error
	put("core.checkpoint.write_ms", 1e3)(timeCalls(budget, func() {
		if err := core.WriteCheckpoint(path, ck); err != nil {
			werr = err
		}
	}))
	if werr != nil {
		return werr
	}
	return probeFeed(o, cfg, budget, r)
}

// probeFeed times the lease/commit protocol over an in-memory source at
// the convnet workload's chunk geometry, so the numbers are the feed's own
// cost and not the digit generator's.
func probeFeed(o *outcome, cfg runCfg, budget time.Duration, r *rng.RNG) error {
	const dim, n = 256, 4096
	src := data.InMemory{X: tensor.NewMatrix(n, dim).Randomize(r, 0, 1)}
	plan, err := data.PlanChunks(data.PlanRequest{SourceLen: n, Batch: 64, ChunkExamples: chunkExamples})
	if err != nil {
		return err
	}
	newFeed := func(consumers int) ([]*feed.Consumer, error) {
		f, err := feed.New(src, feed.Config{Plan: plan, Window: 2})
		if err != nil {
			return nil, err
		}
		cs := make([]*feed.Consumer, consumers)
		for i := range cs {
			if cs[i], err = f.Subscribe("probe"); err != nil {
				return nil, err
			}
		}
		return cs, nil
	}
	cs, err := newFeed(1)
	if err != nil {
		return err
	}
	c := cs[0]
	stage := tensor.NewMatrix(chunkExamples, dim)
	var perr error
	keep := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	cycle := func(fill bool) func() {
		return func() {
			l, err := c.Lease()
			keep(err)
			if fill {
				keep(c.Fill(l, stage))
			}
			keep(c.Commit(l, 0, false))
		}
	}
	leaseCommit, n1 := timeCalls(budget, cycle(false))
	full, n2 := timeCalls(budget, cycle(true))
	bare, n3 := timeCalls(budget, func() { src.Chunk(0, chunkExamples, stage) })
	if perr != nil {
		return perr
	}
	o.set("feed.lease_commit.us", 1e6*leaseCommit, n1)
	o.set("feed.fill.us_per_chunk", 1e6*(full-leaseCommit), n2)
	o.set("feed.overhead_us_per_chunk", 1e6*(full-bare), n2+n3)

	// Draining throughput with 1 and 2 consumers of one feed.
	perConsumer := cfg.count(400, 400)
	for _, consumers := range []int{1, 2} {
		cs, err := newFeed(consumers)
		if err != nil {
			return err
		}
		errs := make([]error, consumers)
		var wg sync.WaitGroup
		start := time.Now()
		for i, c := range cs {
			wg.Add(1)
			go func(i int, c *feed.Consumer) {
				defer wg.Done()
				stage := tensor.NewMatrix(chunkExamples, dim)
				for k := 0; k < perConsumer && errs[i] == nil; k++ {
					l, err := c.Lease()
					if err == nil {
						err = c.Fill(l, stage)
					}
					if err == nil {
						err = c.Commit(l, 0, false)
					}
					errs[i] = err
				}
			}(i, c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		name := "feed.chunks_per_s.c1"
		if consumers == 2 {
			name = "feed.chunks_per_s.c2"
		}
		o.set(name, float64(consumers*perConsumer)/time.Since(start).Seconds(), consumers*perConsumer)
	}
	return nil
}
