package feed

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"phideep/internal/metrics"
)

// Loader is the loading thread of Algorithm 1 (Fig. 5) in wall clock: one
// goroutine that runs fill jobs in submission order while the consumer
// computes on the chunks filled before them. The consumer leases, submits
// the lease's fill, and Waits for it before using the staging buffer it
// wrote; leases, commits and device transfers stay on the consumer's
// goroutine, so the loader changes when a chunk is filled, never what.
//
// At most depth jobs may be submitted and not yet waited for. A Loader is
// driven by one goroutine.
type Loader struct {
	jobs    chan func() error
	results chan error
	done    chan struct{}
}

// NewLoader starts a loader for up to depth outstanding jobs (minimum 1).
func NewLoader(depth int) *Loader {
	depth = max(depth, 1)
	// Both buffers hold depth, the most jobs outstanding, so neither Submit
	// nor the loader's send of a result ever blocks, and Close can drain
	// the queue without anyone calling Wait.
	l := &Loader{
		jobs:    make(chan func() error, depth),
		results: make(chan error, depth),
		done:    make(chan struct{}),
	}
	go l.run()
	return l
}

// loaderLabels marks loader goroutines role=loader in CPU and goroutine
// profiles (go tool pprof -tagfocus role=loader).
var loaderLabels = pprof.WithLabels(context.Background(), pprof.Labels("role", "loader"))

func (l *Loader) run() {
	pprof.SetGoroutineLabels(loaderLabels)
	defer close(l.done)
	for {
		t0 := waitStart()
		job, ok := <-l.jobs
		if !ok {
			return
		}
		recordWait(mLoaderIdle, t0)
		l.results <- runJob(job)
	}
}

// runJob runs one job, turning a panic into its error: on the loader's
// goroutine a panicking source would otherwise take the process down
// instead of reaching the consumer.
func runJob(job func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("feed: loader job panicked: %v", p)
		}
	}()
	return job()
}

// Submit queues job behind the jobs already submitted.
func (l *Loader) Submit(job func() error) { l.jobs <- job }

// Wait blocks until the oldest job not yet waited for has run and returns
// its error.
func (l *Loader) Wait() error {
	t0 := waitStart()
	err := <-l.results
	recordWait(mLoaderWait, t0)
	return err
}

// Close lets the queued jobs finish, discards their results, and joins the
// loader goroutine. The loader must not be used afterwards.
func (l *Loader) Close() {
	close(l.jobs)
	<-l.done
}

// waitStart and recordWait time one hand-over when collection is on; off,
// they cost the one atomic load each.
func waitStart() time.Time {
	if !metrics.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

func recordWait(h *metrics.Histogram, t0 time.Time) {
	if !t0.IsZero() && metrics.Enabled() {
		h.Observe(time.Since(t0).Seconds())
	}
}
