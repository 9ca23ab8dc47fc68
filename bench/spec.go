package main

// metricDef names one reported metric. Bound is set for end-to-end metrics
// only: the share of the parent's median by which the metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// Workload names are fixed; later issues refer to them.
const (
	wlTrainAE   = "train-ae-large"
	wlTrainRBM  = "train-rbm-small"
	wlTrainConv = "train-convnet-feed"
	wlServeOpen = "serve-open-f64"
	wlServeBulk = "serve-bulk-f32"
	wlCluster   = "cluster-4node-feed"
)

// nominalSeconds is the length of one timed phase the fixed operation
// counts below were sized for; -seconds scales every count by
// seconds/nominalSeconds, never below the floors that keep the
// percentiles meaningful.
const nominalSeconds = 8.0

// End-to-end metric names. Every workload reports every one of them, so
// each is defined per workload (README.md has the table): a unit is a
// minibatch step, a request, a bulk pass or a cluster step.
const (
	mSetup    = "setup_s"
	mRows     = "rows_per_s"
	mUnitP50  = "unit_ms_p50"
	mUnitTail = "unit_ms_tail"
	mRSS      = "peak_rss_mb"
)

// The timing bounds are as wide as the contract allows because the 2-core
// sandbox is: between runs of one build, ten seeds each, the quartiles of
// these metrics lay 1-9 % of the median apart in a quiet hour and 3-22 % in
// a busy one (README.md, "Bounds").
var endToEnd = []metricDef{
	{mSetup, "s", lower, 0.25},
	{mRows, "1/s", higher, 0.25},
	{mUnitP50, "ms", lower, 0.25},
	{mUnitTail, "ms", lower, 0.25},
	{mRSS, "MiB", lower, 0.15},
}

// perLayer lists every per-layer metric the traced pass reports, in the
// order README.md documents them. The prefix is the layer (this repo's
// package name). A workload that does not exercise a layer reports 0 for
// that layer's counts and shares; probes run on every workload.
var perLayer = []metricDef{
	{Name: "kernels.gemm64.large.gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "kernels.gemm64.small.gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "kernels.gemm64.conv.gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "kernels.gemm32.mlp.gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "kernels.gemm.share", Unit: "share", Better: lower},
	{Name: "kernels.gemm32.share", Unit: "share", Better: lower},
	{Name: "kernels.gemm.asm_share", Unit: "share", Better: higher},
	{Name: "kernels.pack.reuse_ratio", Unit: "share", Better: higher},
	{Name: "kernels.im2col.us_per_call", Unit: "us", Better: lower},
	{Name: "kernels.col2im.us_per_call", Unit: "us", Better: lower},
	{Name: "kernels.pool.us_per_call", Unit: "us", Better: lower},
	{Name: "kernels.poolbwd.us_per_call", Unit: "us", Better: lower},
	{Name: "kernels.conv.lowering_share", Unit: "share", Better: lower},
	{Name: "kernels.sigmoid.ns_per_elem", Unit: "ns", Better: lower},
	{Name: "kernels.sample.ns_per_elem", Unit: "ns", Better: lower},

	{Name: "parallel.forkjoin.static.us", Unit: "us", Better: lower},
	{Name: "parallel.forkjoin.dynamic.us", Unit: "us", Better: lower},
	{Name: "parallel.regions_per_op", Unit: "count", Better: lower},
	{Name: "parallel.region.share", Unit: "share", Better: lower},

	{Name: "device.exec.us_per_launch", Unit: "us", Better: lower},
	{Name: "device.copyin.chunk.us_per_mb", Unit: "us", Better: lower},
	{Name: "device.copyin.batch.us_per_mb", Unit: "us", Better: lower},
	{Name: "device.copyout.chunk.us_per_mb", Unit: "us", Better: lower},
	{Name: "device.copyout.batch.us_per_mb", Unit: "us", Better: lower},
	{Name: "device.launches_per_op", Unit: "count", Better: lower},
	{Name: "device.wall.compute_share", Unit: "share", Better: lower},
	{Name: "device.wall.transfer_share", Unit: "share", Better: lower},

	{Name: "blas.dispatch.us_per_op", Unit: "us", Better: lower},

	{Name: "models.step_ms.p50", Unit: "ms", Better: lower},
	{Name: "models.step.share", Unit: "share", Better: higher},
	{Name: "models.forward_ms_per_batch.f64", Unit: "ms", Better: lower},
	{Name: "models.forward_ms_per_batch.f32", Unit: "ms", Better: lower},
	{Name: "models.units_to_target", Unit: "count", Better: lower},
	{Name: "models.time_to_target_s", Unit: "s", Better: lower},

	{Name: "core.trainer.self_share", Unit: "share", Better: lower},
	{Name: "core.trainer.chunks", Unit: "count", Better: lower},
	{Name: "core.trainer.skipped_chunks", Unit: "count", Better: lower},
	{Name: "core.checkpoint.encode_ms", Unit: "ms", Better: lower},
	{Name: "core.checkpoint.write_ms", Unit: "ms", Better: lower},

	{Name: "data.chunk.us_per_example", Unit: "us", Better: lower},
	{Name: "data.chunk.share", Unit: "share", Better: lower},

	{Name: "feed.lease_commit.us", Unit: "us", Better: lower},
	{Name: "feed.fill.us_per_chunk", Unit: "us", Better: lower},
	{Name: "feed.overhead_us_per_chunk", Unit: "us", Better: lower},
	{Name: "feed.chunks_per_s.c1", Unit: "1/s", Better: higher},
	{Name: "feed.chunks_per_s.c2", Unit: "1/s", Better: higher},
	{Name: "feed.leases", Unit: "count", Better: lower},
	{Name: "feed.commits", Unit: "count", Better: lower},
	{Name: "feed.stalls", Unit: "count", Better: lower},
	{Name: "feed.seeks", Unit: "count", Better: lower},

	{Name: "serve.batch.mean_size", Unit: "count", Better: higher},
	{Name: "serve.flush.full_share", Unit: "share", Better: higher},
	{Name: "serve.batches", Unit: "count", Better: lower},
	{Name: "serve.wait_ms.p50", Unit: "ms", Better: lower},
	{Name: "serve.open.gen_late_ms.max", Unit: "ms", Better: lower},
	{Name: "serve.open.slo_miss_share", Unit: "share", Better: lower},
	{Name: "serve.open.hi.p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.open.hi.p99_ms", Unit: "ms", Better: lower},
	{Name: "serve.open.hi.backlog_growth", Unit: "ms/s", Better: lower},
	{Name: "serve.closed.capacity_rps", Unit: "1/s", Better: higher},
	{Name: "serve.bulk.overhead_us_per_row", Unit: "us", Better: lower},
	{Name: "serve.bulk.failed", Unit: "count", Better: lower},

	{Name: "cluster.sync_ms", Unit: "ms", Better: lower},
	{Name: "cluster.sync.share", Unit: "share", Better: lower},
	{Name: "cluster.syncs", Unit: "count", Better: lower},

	{Name: "sim.seconds", Unit: "s", Better: lower},
	{Name: "sim.over_wall", Unit: "share", Better: lower},

	{Name: "go.mallocs_per_op", Unit: "count", Better: lower},
	{Name: "go.gc_cycles", Unit: "count", Better: lower},
	{Name: "go.gc_pause_ms_total", Unit: "ms", Better: lower},

	{Name: "metrics.on_overhead_pct", Unit: "%", Better: lower},
}

// workloadDef is one row of the workload table: the name, the one-line
// reason it exists (copied into BENCHMARK.json) and how to set it up.
type workloadDef struct {
	Name  string
	Why   string
	setup func(cfg runCfg, tr *tracer) (instance, error)
}

var workloads = []workloadDef{
	{wlTrainAE, "Paper's headline case: big autoencoder, big batch; GEMM is most of the step, so kernels dominate and dispatch barely shows",
		func(cfg runCfg, tr *tracer) (instance, error) { return setupTrain(aeLarge, cfg, tr) }},
	{wlTrainRBM, "Small RBM at batch 32: many tiny kernel launches, so fork/join, op dispatch, sampling and chunk fill dominate; a GEMM speed-up should barely move it",
		func(cfg runCfg, tr *tracer) (instance, error) { return setupTrain(rbmSmall, cfg, tr) }},
	{wlTrainConv, "LeNet-style convnet fed through the lease/commit feed: im2col, pooling and medium GEMMs, and the only trainer run on the feed path",
		func(cfg runCfg, tr *tracer) (instance, error) { return setupTrain(convFeed, cfg, tr) }},
	{wlServeOpen, "Independent users: open-loop 4000 req/s f64 encode; latency is batcher wait, timer lateness and staging, not GEMM",
		setupServeOpen},
	{wlServeBulk, "Offline f32 sweep through the same server: full flushes, so throughput is Gemm32, f64-f32 staging and per-row admission cost",
		setupServeBulk},
	{wlCluster, "4-node synchronous data-parallel steps over one shared feed: half the step is parameter sync and lock-step lease/fill/commit",
		setupCluster},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
