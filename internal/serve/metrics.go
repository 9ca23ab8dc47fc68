package serve

import (
	"sync/atomic"
	"time"

	"phideep/internal/metrics"
)

// Metric handles, resolved once against the default registry; every record
// site is guarded by metrics.Enabled so a server with collection off pays
// one atomic load per event.
var (
	mRequests   = metrics.Default().Counter("serve.requests")
	mBatches    = metrics.Default().Counter("serve.batches")
	mSheds      = metrics.Default().Counter("serve.sheds")
	mDegrades   = metrics.Default().Counter("serve.degrades")
	mQueueDepth = metrics.Default().Gauge("serve.queue.depth")
	mBatchSize  = metrics.Default().Histogram("serve.batch.size", metrics.LinearBuckets(1, 1, 64)...)
	mLatency    = metrics.Default().Histogram("serve.latency.seconds", metrics.ExpBuckets(1e-6, 2, 24)...)
	mFlushFull  = metrics.Default().Counter("serve.flush.full")

	mFaultBatches = metrics.Default().Counter("serve.fault.batches")
	mFaultRetries = metrics.Default().Counter("serve.fault.retries")
	mRedispatches = metrics.Default().Counter("serve.fault.redispatches")
	mRestarts     = metrics.Default().Counter("serve.restart.count")
	mRetired      = metrics.Default().Counter("serve.restart.retired")
	mDeadlines    = metrics.Default().Counter("serve.deadline.timeouts")
	mDiscarded    = metrics.Default().Counter("serve.deadline.discarded")
	mHealth       = metrics.Default().Gauge("serve.health")
)

// recordBatch records a batch a worker took; full says it held MaxBatch
// requests.
func recordBatch(size int, full bool) {
	if !metrics.Enabled() {
		return
	}
	mRequests.Add(int64(size))
	mBatches.Inc()
	mBatchSize.Observe(float64(size))
	if full {
		mFlushFull.Inc()
	}
}

// count records one event in the server's always-on ledger and, when
// collection is on, in the registry counter that mirrors it.
func count(ledger *atomic.Int64, c *metrics.Counter) {
	ledger.Add(1)
	if metrics.Enabled() {
		c.Inc()
	}
}

func recordQueueDepth(depth int) {
	if metrics.Enabled() {
		mQueueDepth.Set(float64(depth))
	}
}

func recordLatency(d time.Duration) {
	if metrics.Enabled() {
		mLatency.Observe(d.Seconds())
	}
}

// recordHealth publishes the health state machine position as a gauge
// (0 healthy, 1 degraded, 2 draining, 3 down).
func recordHealth(h Health) {
	if metrics.Enabled() {
		mHealth.Set(float64(h))
	}
}

// counters is the server's always-on internal ledger backing Stats.
type counters struct {
	requests     atomic.Int64
	batches      atomic.Int64
	flushFull    atomic.Int64
	sheds        atomic.Int64
	degrades     atomic.Int64
	completed    atomic.Int64
	batchSizeSum atomic.Int64
	latencyNanos atomic.Int64

	faultBatches     atomic.Int64
	faultRetries     atomic.Int64
	redispatches     atomic.Int64
	restarts         atomic.Int64
	retired          atomic.Int64
	deadlineTimeouts atomic.Int64
	discarded        atomic.Int64
}

// BatcherStats is a point-in-time snapshot of the micro-batcher, returned
// by Server.Stats.
type BatcherStats struct {
	// Precision names the worker forward path ("f64" or "f32"), so a
	// metrics consumer can attribute the latency series to the numeric
	// width that produced it.
	Precision string
	// Requests counts admitted requests; Completed those already answered
	// by a worker (degraded answers count in Degrades only).
	Requests  int64
	Completed int64
	// Batches counts the batches workers took from the pending queues (a
	// faulted batch's retry is not counted again); FlushFull of them held
	// MaxBatch requests.
	Batches   int64
	FlushFull int64
	// Sheds and Degrades count full-queue rejections and host-path
	// fallbacks under the respective policies.
	Sheds    int64
	Degrades int64
	// QueueDepth is the current number of admitted requests no worker has
	// taken yet.
	QueueDepth int
	// AvgBatchSize is Requests-weighted mean coalescing achieved.
	AvgBatchSize float64
	// MeanLatencySeconds is the mean enqueue-to-answer latency of
	// completed requests. Percentiles belong to the caller: the phiserve
	// load generator computes p50/p99 from its own samples.
	MeanLatencySeconds float64
	// Health is the availability state machine position ("healthy",
	// "degraded", "draining", "down"); WorkersLive of WorkersConfigured
	// worker slots have not retired.
	Health            string
	WorkersLive       int
	WorkersConfigured int
	// FaultBatches counts batches that faulted out of a worker (injected
	// faults surviving the retry budget, or recovered panics);
	// FaultRetries the transient faults a batch retried past;
	// Redispatches the faulted batches queued for their one retry.
	FaultBatches int64
	FaultRetries int64
	Redispatches int64
	// Restarts counts worker rebuilds; Retired the slots whose faults
	// exceeded the restart intensity.
	Restarts int64
	Retired  int64
	// DeadlineTimeouts counts requests abandoned at their deadline (or
	// ctx expiry); Discarded the late worker results thrown away for
	// already-abandoned requests.
	DeadlineTimeouts int64
	Discarded        int64
}

// Stats returns a consistent-enough snapshot of the batcher counters (each
// field is read atomically; the set is not a single atomic cut).
func (s *Server) Stats() BatcherStats {
	st := BatcherStats{
		Precision: s.cfg.Precision.String(),
		Requests:  s.st.requests.Load(),
		Completed: s.st.completed.Load(),
		Batches:   s.st.batches.Load(),
		FlushFull: s.st.flushFull.Load(),
		Sheds:     s.st.sheds.Load(),
		Degrades:  s.st.degrades.Load(),

		WorkersConfigured: s.cfg.Workers,
		FaultBatches:      s.st.faultBatches.Load(),
		FaultRetries:      s.st.faultRetries.Load(),
		Redispatches:      s.st.redispatches.Load(),
		Restarts:          s.st.restarts.Load(),
		Retired:           s.st.retired.Load(),
		DeadlineTimeouts:  s.st.deadlineTimeouts.Load(),
		Discarded:         s.st.discarded.Load(),
	}
	s.mu.Lock()
	st.QueueDepth = s.queued
	st.WorkersLive = s.live
	st.Health = s.healthLocked().String()
	s.mu.Unlock()
	if st.Batches > 0 {
		st.AvgBatchSize = float64(s.st.batchSizeSum.Load()) / float64(st.Batches)
	}
	if st.Completed > 0 {
		st.MeanLatencySeconds = float64(s.st.latencyNanos.Load()) / float64(st.Completed) / 1e9
	}
	return st
}
