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
	// Flushes by kind, indexed by flushKind.
	mFlushes = [...]*metrics.Counter{
		flushFull:     metrics.Default().Counter("serve.flush.full"),
		flushIdle:     metrics.Default().Counter("serve.flush.idle"),
		flushDeadline: metrics.Default().Counter("serve.flush.deadline"),
	}

	mFaultBatches = metrics.Default().Counter("serve.fault.batches")
	mFaultRetries = metrics.Default().Counter("serve.fault.retries")
	mRedispatches = metrics.Default().Counter("serve.fault.redispatches")
	mRestarts     = metrics.Default().Counter("serve.restart.count")
	mRetired      = metrics.Default().Counter("serve.restart.retired")
	mDeadlines    = metrics.Default().Counter("serve.deadline.timeouts")
	mDiscarded    = metrics.Default().Counter("serve.deadline.discarded")
	mHealth       = metrics.Default().Gauge("serve.health")
)

func recordBatch(size int, kind flushKind) {
	if !metrics.Enabled() {
		return
	}
	mRequests.Add(int64(size))
	mBatches.Inc()
	mBatchSize.Observe(float64(size))
	mFlushes[kind].Inc()
}

func recordShed() {
	if metrics.Enabled() {
		mSheds.Inc()
	}
}

func recordDegrade() {
	if metrics.Enabled() {
		mDegrades.Inc()
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

func recordFaultBatch() {
	if metrics.Enabled() {
		mFaultBatches.Inc()
	}
}

func recordFaultRetry() {
	if metrics.Enabled() {
		mFaultRetries.Inc()
	}
}

func recordRedispatch() {
	if metrics.Enabled() {
		mRedispatches.Inc()
	}
}

func recordRestart() {
	if metrics.Enabled() {
		mRestarts.Inc()
	}
}

func recordRetire() {
	if metrics.Enabled() {
		mRetired.Inc()
	}
}

func recordDeadlineTimeout() {
	if metrics.Enabled() {
		mDeadlines.Inc()
	}
}

func recordDiscarded() {
	if metrics.Enabled() {
		mDiscarded.Inc()
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
	flushes      [len(mFlushes)]atomic.Int64 // by flushKind
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
	// Batches counts dispatched batches. FlushFull of them flushed at
	// MaxBatch, FlushIdle at once because a replica was idle, and
	// FlushDeadline on the MaxWait timer while every replica was busy
	// (flushes for Close, Drain, a bulk sweep's tail and Down count as
	// deadline flushes).
	Batches       int64
	FlushFull     int64
	FlushIdle     int64
	FlushDeadline int64
	// Sheds and Degrades count full-queue rejections and host-path
	// fallbacks under the respective policies.
	Sheds    int64
	Degrades int64
	// QueueDepth is the current number of admitted, not-yet-dispatched
	// requests.
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
	// Redispatches the faulted batches salvaged by a healthy replica.
	FaultBatches int64
	FaultRetries int64
	Redispatches int64
	// Restarts counts worker rebuilds; Retired the slots whose restart
	// budget ran out.
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
		Precision:     s.cfg.Precision.String(),
		Requests:      s.st.requests.Load(),
		Completed:     s.st.completed.Load(),
		Batches:       s.st.batches.Load(),
		FlushFull:     s.st.flushes[flushFull].Load(),
		FlushIdle:     s.st.flushes[flushIdle].Load(),
		FlushDeadline: s.st.flushes[flushDeadline].Load(),
		Sheds:         s.st.sheds.Load(),
		Degrades:      s.st.degrades.Load(),

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
