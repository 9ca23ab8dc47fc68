package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"phideep/internal/feed"
	"phideep/internal/metrics"
	"phideep/internal/tensor"
)

// Bulk-scoring metric handles, same registry idiom as the request-path
// metrics in metrics.go.
var (
	mBulkChunks = metrics.Default().Counter("serve.bulk.chunks")
	mBulkRows   = metrics.Default().Counter("serve.bulk.rows")
	mBulkFailed = metrics.Default().Counter("serve.bulk.failed")
)

func recordBulkChunk(rows, failed int) {
	if !metrics.Enabled() {
		return
	}
	mBulkChunks.Inc()
	mBulkRows.Add(int64(rows))
	mBulkFailed.Add(int64(failed))
}

// BulkResult summarizes one ScoreFeed sweep.
type BulkResult struct {
	// Chunks is the number of leases scored; Rows the examples answered.
	Chunks int `json:"chunks"`
	Rows   int `json:"rows"`
	// Failed counts rows whose serving call errored (worker faults, the
	// Shed policy, expired deadlines). A chunk that loses every row is
	// committed with the feed's skipped flag, like a dropped training
	// chunk.
	Failed int `json:"failed"`
	// Correct and Labeled carry the free accuracy sweep: when the feed
	// serves labels and op is OpPredict, Correct counts rows whose argmax
	// matched the label.
	Correct int  `json:"correct"`
	Labeled bool `json:"labeled"`
	// Seconds is the wall-clock duration of the sweep.
	Seconds float64 `json:"seconds"`
}

// ScoreFeed is the feed-backed bulk-scoring path: the server becomes one
// consumer of a dataset feed and scores its shard chunk by chunk through
// the same admission queue, micro-batcher, and fault-tolerant workers as
// online traffic. The sweep is the paper's two-stage pipeline (Algorithm 1,
// Fig. 5) in wall clock: the sweep leases chunk k+1 and a feed.Loader fills
// it into one staging buffer while chunk k, in the other, is admitted as one
// run of rows cut straight into full batches. Leases commit in lease order
// as their rows settle, and out — when non-nil — receives each answered row
// in chunk order as (example index into the source, scores). The scores
// slice is owned by the callback. A feed with Window 1 gets one staging
// buffer and the sweep runs load, score, load, score.
//
// Row-level failures are counted and skipped, not fatal: a bulk sweep over
// a degraded server completes with Failed > 0 the same way a training run
// survives dropped chunks. Server-level failure (Close, every worker
// retired) or a failing source aborts the sweep with the partial result;
// whatever it had leased and not scored by then is committed as skipped.
// The sweep ends at the feed's TotalChunks horizon, or after one full pass
// over the consumer's shard when the feed is unbounded.
func (s *Server) ScoreFeed(op Op, fc *feed.Consumer, out func(example int, scores []float64)) (*BulkResult, error) {
	return s.ScoreFeedContext(context.Background(), op, fc, out)
}

// ScoreFeedContext is ScoreFeed honoring ctx: cancellation stops leasing
// new chunks and fails the in-flight rows, returning the partial result.
func (s *Server) ScoreFeedContext(ctx context.Context, op Op, fc *feed.Consumer, out func(example int, scores []float64)) (*BulkResult, error) {
	if fc == nil {
		return nil, errors.New("serve: nil feed consumer")
	}
	if s.model.OutputDim(op) == 0 {
		return nil, &UnsupportedOpError{Kind: s.model.Kind(), Op: op}
	}
	if d := fc.Dim(); d != s.model.InputDim() {
		return nil, fmt.Errorf("serve: feed serves %d-wide examples, model wants %d", d, s.model.InputDim())
	}
	plan := fc.Plan()
	sw := &sweep{
		s: s, ctx: ctx, op: op, fc: fc, out: out, sourceLen: plan.SourceLen,
		res:   &BulkResult{Labeled: fc.Labeled() && op == OpPredict},
		start: time.Now(),
	}
	defer func() { sw.res.Seconds = sw.clock() }()

	stages := s.takeStages(plan.ChunkExamples, fc.Dim(), min(2, fc.Window()))
	defer s.putStages(stages)
	ld := feed.NewLoader(len(stages))
	// queued holds the leased chunks not yet handed to score, in lease order.
	var queued []*bulkStage
	defer func() {
		// Let the loader finish what it was given, then hand back every
		// chunk an aborted sweep leased but never scored.
		ld.Close()
		for _, st := range queued {
			_ = fc.Commit(st.lease, sw.clock(), true) // fails only on a closed consumer, whose leases are gone anyway
		}
	}()
	// An unbounded feed would loop the source forever; the sweep stops
	// after one full pass over this consumer's shard.
	chunks := plan.Chunks(plan.SourceLen / plan.Batch)
	leased := 0
	// stage leases the next chunk into the next staging buffer and hands
	// its fill to the loader.
	stage := func() error {
		if leased == chunks {
			return nil
		}
		l, err := fc.Lease()
		if errors.Is(err, feed.ErrExhausted) {
			chunks = leased
			return nil
		}
		if err != nil {
			return fmt.Errorf("serve: bulk lease: %w", err)
		}
		st := stages[leased%len(stages)]
		st.lease, st.labels = l, nil
		leased++
		queued = append(queued, st)
		ld.Submit(func() error { return sw.fill(st) })
		return nil
	}

	if err := stage(); err != nil {
		return sw.res, err
	}
	for len(queued) > 0 {
		// With two buffers chunk k+1 fills while chunk k scores; its buffer
		// last held chunk k-1, which score has already settled.
		if len(stages) > 1 {
			if err := stage(); err != nil {
				return sw.res, err
			}
		}
		if err := ld.Wait(); err != nil {
			return sw.res, err
		}
		st := queued[0]
		queued = queued[1:]
		if err := sw.score(st); err != nil {
			return sw.res, err
		}
		if len(stages) == 1 {
			if err := stage(); err != nil {
				return sw.res, err
			}
		}
	}
	return sw.res, nil
}

// bulkStage is one of a sweep's staging buffers: a leased chunk on its way
// from the loader to the workers.
type bulkStage struct {
	x *tensor.Matrix // ChunkExamples×Dim, filled by the loader

	lease  feed.Lease
	labels []int // when the sweep scores accuracy

	// reading counts the chunk's rows a worker may still read. It outlives
	// the rows' waiters: a row abandoned at its deadline stays in its batch.
	reading sync.WaitGroup
}

// takeStages returns n staging buffers of rows×dim, the server's cached set
// when it fits and is not out with a concurrent sweep.
func (s *Server) takeStages(rows, dim, n int) []*bulkStage {
	s.bulkMu.Lock()
	stages := s.bulkStages
	s.bulkStages = nil
	s.bulkMu.Unlock()
	if len(stages) == n && stages[0].x.Rows == rows && stages[0].x.Cols == dim {
		return stages
	}
	stages = make([]*bulkStage, n)
	for i := range stages {
		stages[i] = &bulkStage{x: tensor.NewMatrix(rows, dim)}
	}
	return stages
}

// putStages caches a finished sweep's staging buffers for the next one.
func (s *Server) putStages(stages []*bulkStage) {
	s.bulkMu.Lock()
	s.bulkStages = stages
	s.bulkMu.Unlock()
}

// sweep is the state of one ScoreFeed call. res is touched only by the
// calling goroutine (the scoring stage).
type sweep struct {
	s         *Server
	ctx       context.Context
	op        Op
	fc        *feed.Consumer
	out       func(example int, scores []float64)
	sourceLen int
	res       *BulkResult
	start     time.Time
}

// clock is the sweep's commit clock: wall seconds since it began.
func (sw *sweep) clock() float64 { return time.Since(sw.start).Seconds() }

// fill streams the stage's leased chunk, and its labels when the sweep
// scores accuracy, out of the feed. It runs on the loader, which reports a
// panicking source as a failed fill.
func (sw *sweep) fill(st *bulkStage) (err error) {
	if err := sw.fc.Fill(st.lease, st.x); err != nil {
		return fmt.Errorf("serve: bulk fill: %w", err)
	}
	if sw.res.Labeled {
		if st.labels, err = sw.fc.Labels(st.lease); err != nil {
			return fmt.Errorf("serve: bulk labels: %w", err)
		}
	}
	return nil
}

// score is the scoring stage for one filled chunk: admit its rows as one
// run, await them in order, tally, commit the lease. It returns once no
// worker can still read the stage, so the caller may recycle it.
func (sw *sweep) score(st *bulkStage) error {
	s, l, res := sw.s, st.lease, sw.res
	reqs := make([]request, l.N)
	enq := time.Now()
	for i := range reqs {
		r := &reqs[i]
		r.op, r.in, r.enq, r.done, r.settled = sw.op, st.x.RowView(i), enq, make(chan struct{}), &st.reading
	}
	st.reading.Add(l.N)
	deadline := s.deadlineFor(sw.ctx, enq)
	s.admitRows(sw.ctx, reqs, st.x.Data, deadline)

	failed, fatal := 0, error(nil)
	for i := range reqs {
		scores, err := s.await(sw.ctx, &reqs[i], deadline)
		if err != nil {
			failed++
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrDown) {
				fatal = err
			}
			continue
		}
		res.Rows++
		if res.Labeled && argmax(scores) == st.labels[i] {
			res.Correct++
		}
		if sw.out != nil {
			sw.out((l.Start+i)%sw.sourceLen, scores)
		}
	}
	res.Chunks++
	res.Failed += failed
	recordBulkChunk(l.N-failed, failed)
	commitErr := sw.fc.Commit(l, sw.clock(), failed == l.N)
	// A row whose waiter gave up at its deadline is still in a batch that
	// reads the stage; wait the workers out before anyone refills it.
	st.reading.Wait()
	switch {
	case fatal != nil:
		return fmt.Errorf("serve: bulk sweep aborted: %w", fatal)
	case sw.ctx.Err() != nil:
		return ctxErr(sw.ctx)
	case commitErr != nil:
		return fmt.Errorf("serve: bulk commit: %w", commitErr)
	}
	return nil
}

// argmax returns the index of the largest score (first on ties).
func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
