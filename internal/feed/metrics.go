package feed

import "phideep/internal/metrics"

// Data-plane observability handles (DESIGN.md §"Observability"): protocol
// counters for the lease/commit stream and gauges for its live occupancy.
// Recorded only while metrics.Enabled() holds; the per-Feed Stats snapshot
// is always maintained regardless.
var (
	mLeases  = metrics.Default().Counter("feed.leases")
	mCommits = metrics.Default().Counter("feed.commits")
	mSkips   = metrics.Default().Counter("feed.skips")
	mStalls  = metrics.Default().Counter("feed.stalls")
	mSeeks   = metrics.Default().Counter("feed.seeks")

	// mOccupancy is the current number of uncommitted leases across all
	// consumers of all feeds in the process; mConsumers the open
	// subscriber count.
	mOccupancy = metrics.Default().Gauge("feed.window.occupancy")
	mConsumers = metrics.Default().Gauge("feed.consumers")

	// The Loader pipeline's balance, per job: how long the consumer sat in
	// Wait for a fill (the run is loader-bound) and how long the loader sat
	// waiting for a job (the run is compute-bound).
	mLoaderWait = metrics.Default().Histogram("feed.loader.wait.seconds", metrics.ExpBuckets(1e-6, 4, 12)...)
	mLoaderIdle = metrics.Default().Histogram("feed.loader.idle.seconds", metrics.ExpBuckets(1e-6, 4, 12)...)
)
