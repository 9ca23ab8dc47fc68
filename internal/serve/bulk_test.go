package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/data"
	"phideep/internal/feed"
	"phideep/internal/mlp"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// bulkFeed builds a single-consumer feed over src for bulk scoring.
func bulkFeed(t *testing.T, src data.Source, batch, chunk, total int) (*feed.Feed, *feed.Consumer) {
	t.Helper()
	return bulkFeedWindow(t, src, batch, chunk, total, 0)
}

// bulkFeedWindow is bulkFeed with the lease window set and the ledger on.
func bulkFeedWindow(t *testing.T, src data.Source, batch, chunk, total, window int) (*feed.Feed, *feed.Consumer) {
	t.Helper()
	p, err := data.PlanChunks(data.PlanRequest{SourceLen: src.Len(), Batch: batch, ChunkExamples: chunk})
	if err != nil {
		t.Fatal(err)
	}
	cfg := feed.Config{Plan: p, TotalChunks: total, Window: window, Ledger: true}
	var f *feed.Feed
	if l, ok := src.(data.Labeled); ok {
		f, err = feed.NewLabeled(l, cfg)
	} else {
		f, err = feed.New(src, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.Subscribe("scorer")
	if err != nil {
		t.Fatal(err)
	}
	return f, c
}

// randSource builds an in-memory source of n random dim-wide examples.
func randSource(n, dim int, seed uint64) data.InMemory {
	r := rng.New(seed)
	x := tensor.NewMatrix(n, dim)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	return data.InMemory{X: x}
}

// TestScoreFeedMatchesSingleRequests: the bulk path answers every source
// row once, in order, with exactly the answer the single-request path
// gives for the same input.
func TestScoreFeedMatchesSingleRequests(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	src := randSource(48, cfg.Visible, 3)
	f, c := bulkFeed(t, src, 8, 24, 2) // horizon = one pass
	got := make(map[int][]float64)
	res, err := srv.ScoreFeed(OpEncode, c, func(ex int, scores []float64) {
		if _, dup := got[ex]; dup {
			t.Fatalf("example %d scored twice", ex)
		}
		got[ex] = scores
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 2 || res.Rows != 48 || res.Failed != 0 {
		t.Fatalf("bulk result %+v", res)
	}
	if len(got) != src.Len() {
		t.Fatalf("scored %d of %d examples", len(got), src.Len())
	}
	for ex, scores := range got {
		want, err := srv.Encode(src.X.RowView(ex))
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if scores[j] != want[j] {
				t.Fatalf("example %d: bulk %v vs single %v", ex, scores, want)
			}
		}
	}
	// Every lease committed; nothing outstanding.
	if s := f.Stats(); s.Leases != 2 || s.Commits != 2 || s.Outstanding != 0 {
		t.Fatalf("feed stats %+v", s)
	}
}

// TestScoreFeedAccuracy: a labeled feed plus OpPredict yields the free
// accuracy sweep, and the count matches a hand-rolled argmax loop.
func TestScoreFeedAccuracy(t *testing.T) {
	src := data.NewDigits(8, 60, 4, 0.05)
	mcfg := mlp.Config{Sizes: []int{src.Dim(), 10, 10}, Lambda: 1e-4}
	srv, err := New(MLP(mcfg, mlp.NewParams(mcfg, 2)), Config{MaxBatch: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	_, c := bulkFeed(t, src, 10, 30, 2)
	want := 0
	res, err := srv.ScoreFeed(OpPredict, c, func(ex int, scores []float64) {
		if argmax(scores) == src.Label(ex) {
			want++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Labeled {
		t.Fatal("labeled feed not detected")
	}
	if res.Correct != want {
		t.Fatalf("accuracy %d, callback counted %d", res.Correct, want)
	}
	if res.Rows != 60 {
		t.Fatalf("rows %d", res.Rows)
	}
}

// TestScoreFeedUnboundedStopsAfterOnePass: without a TotalChunks horizon
// the sweep stops after one full pass instead of looping the source.
func TestScoreFeedUnboundedStopsAfterOnePass(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	src := randSource(36, cfg.Visible, 3)
	_, c := bulkFeed(t, src, 6, 12, 0) // unbounded
	res, err := srv.ScoreFeed(OpEncode, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 3 || res.Rows != 36 {
		t.Fatalf("one pass over 36 examples in 12-chunks: %+v", res)
	}
}

// TestScoreFeedValidation covers the rejection surface.
func TestScoreFeedValidation(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := srv.ScoreFeed(OpEncode, nil, nil); err == nil {
		t.Fatal("nil consumer accepted")
	}
	_, c := bulkFeed(t, data.Null{D: cfg.Visible, N: 40}, 4, 8, 1)
	var uerr *UnsupportedOpError
	if _, err := srv.ScoreFeed(OpPredict, c, nil); !errors.As(err, &uerr) {
		t.Fatalf("unsupported op: %v", err)
	}
	_, wide := bulkFeed(t, data.Null{D: cfg.Visible + 1, N: 40}, 4, 8, 1)
	if _, err := srv.ScoreFeed(OpEncode, wide, nil); err == nil || !strings.Contains(err.Error(), "wide") {
		t.Fatalf("dim mismatch: %v", err)
	}
}

// TestScoreFeedClosedServerAborts: closing the server mid-sweep returns
// the partial result with an error instead of hanging or panicking.
func TestScoreFeedClosedServerAborts(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	_, c := bulkFeed(t, data.Null{D: cfg.Visible, N: 40}, 4, 8, 2)
	res, err := srv.ScoreFeed(OpEncode, c, nil)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if res == nil || res.Rows != 0 || res.Failed == 0 {
		t.Fatalf("partial result %+v", res)
	}
}

// TestScoreFeedContextCancel: cancellation stops the sweep between chunks.
func TestScoreFeedContextCancel(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	_, c := bulkFeed(t, data.Null{D: cfg.Visible, N: 400}, 4, 8, 0)
	n := 0
	_, err = srv.ScoreFeedContext(ctx, OpEncode, c, func(int, []float64) {
		n++
		if n == 8 {
			cancel()
		}
	})
	if err == nil || (!errors.Is(err, context.Canceled) && !errors.Is(err, ErrDeadline)) {
		t.Fatalf("want cancellation error, got %v", err)
	}
	if n >= 400 {
		t.Fatal("sweep ran to completion despite cancellation")
	}
}

// TestScoreFeedPipelined: with the loader running a chunk ahead (Window 2)
// and in lockstep (Window 1), at both precisions, the sweep gives the
// single-request path's answers bit for bit, calls back in source order,
// counts the same correct predictions, and leaves a clean feed ledger:
// every lease committed in lease order, never more than min(2, Window)
// outstanding, no stalls. A second sweep reuses the first one's staging
// buffers.
func TestScoreFeedPipelined(t *testing.T) {
	src := data.NewDigits(8, 96, 4, 0.05)
	mcfg := mlp.Config{Sizes: []int{src.Dim(), 10, 10}, Lambda: 1e-4}
	for _, prec := range []Precision{F64, F32} {
		for _, window := range []int{1, 2} {
			srv, err := New(MLP(mcfg, mlp.NewParams(mcfg, 2)), Config{MaxBatch: 8, Workers: 2, Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			f, c := bulkFeedWindow(t, src, 8, 24, 0, window)
			var order []int
			got := make([][]float64, src.Len())
			res, err := srv.ScoreFeed(OpPredict, c, func(ex int, scores []float64) {
				order = append(order, ex)
				got[ex] = scores
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Chunks != 4 || res.Rows != 96 || res.Failed != 0 || !res.Labeled {
				t.Fatalf("%v window %d: result %+v", prec, window, res)
			}
			correct := 0
			for ex := range got {
				if order[ex] != ex {
					t.Fatalf("%v window %d: callback %d was for example %d", prec, window, ex, order[ex])
				}
				row := tensor.NewMatrix(1, src.Dim())
				src.Chunk(ex, 1, row)
				want, err := srv.Predict(row.RowView(0))
				if err != nil {
					t.Fatal(err)
				}
				if !bitwiseEqual(got[ex], want) {
					t.Fatalf("%v window %d example %d: bulk %v vs single %v", prec, window, ex, got[ex], want)
				}
				if argmax(want) == src.Label(ex) {
					correct++
				}
			}
			if res.Correct != correct {
				t.Fatalf("%v window %d: Correct %d, single requests say %d", prec, window, res.Correct, correct)
			}

			st := f.Stats()
			if st.Leases != 4 || st.Commits != 4 || st.Outstanding != 0 || st.Stalls != 0 || st.Skips != 0 ||
				st.MaxOutstanding > min(2, window) {
				t.Fatalf("%v window %d: feed stats %+v", prec, window, st)
			}
			next := 0
			for _, e := range f.Events() {
				if e.Kind == feed.EvCommit {
					if e.Seq != next {
						t.Fatalf("%v window %d: commit of chunk %d, want %d (lease order)", prec, window, e.Seq, next)
					}
					next++
				}
			}

			stages := append([]*bulkStage(nil), srv.bulkStages...)
			if len(stages) != min(2, window) {
				t.Fatalf("%v window %d: %d cached staging buffers", prec, window, len(stages))
			}
			if _, err := srv.ScoreFeed(OpPredict, c, nil); err != nil {
				t.Fatal(err)
			}
			for i, st := range srv.bulkStages {
				if st != stages[i] {
					t.Fatalf("%v window %d: second sweep allocated a new staging buffer", prec, window)
				}
			}
			srv.Close()
		}
	}
}

// failingSource renders zeros until an example at or past failAt is asked
// for, then panics — a dataset whose backing store went away mid-sweep.
type failingSource struct {
	data.Null
	failAt int
}

func (s failingSource) Chunk(start, n int, dst *tensor.Matrix) {
	if start+n > s.failAt {
		panic("backing store gone")
	}
	s.Null.Chunk(start, n, dst)
}

// settledGoroutines polls until the goroutine count is back at or below
// want (timer and waker goroutines take a moment to exit) and returns the
// last count seen.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestScoreFeedAbortsClean: a sweep cut short — by cancellation, by Close,
// by a source that fails — returns the partial result and an error, leaves
// no goroutine behind and no lease uncommitted, whichever stage of the
// pipeline was ahead when it happened.
func TestScoreFeedAbortsClean(t *testing.T) {
	cfg := aeTestConfig()
	cases := []struct {
		name string
		src  data.Source
		// trip is called from the row callback with the rows seen so far.
		trip  func(rows int, cancel context.CancelFunc, srv *Server)
		check func(err error) bool
	}{
		{"cancel", data.Null{D: cfg.Visible, N: 400},
			func(rows int, cancel context.CancelFunc, _ *Server) {
				if rows == 20 {
					cancel()
				}
			},
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"close", data.Null{D: cfg.Visible, N: 400},
			func(rows int, _ context.CancelFunc, srv *Server) {
				if rows == 20 {
					srv.Close()
				}
			},
			func(err error) bool { return errors.Is(err, ErrClosed) }},
		{"source", failingSource{data.Null{D: cfg.Visible, N: 400}, 40},
			func(int, context.CancelFunc, *Server) {},
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "backing store gone") }},
	}
	for _, tc := range cases {
		for _, window := range []int{1, 2} {
			srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 4, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			f, c := bulkFeedWindow(t, tc.src, 4, 8, 0, window)
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			rows := 0
			res, err := srv.ScoreFeedContext(ctx, OpEncode, c, func(int, []float64) {
				rows++
				tc.trip(rows, cancel, srv)
			})
			cancel()
			if !tc.check(err) {
				t.Fatalf("%s window %d: error %v", tc.name, window, err)
			}
			if res == nil || res.Rows != rows || res.Rows >= 400 || res.Chunks == 0 {
				t.Fatalf("%s window %d: partial result %+v after %d callbacks", tc.name, window, res, rows)
			}
			if st := f.Stats(); st.Leases != st.Commits || st.Outstanding != 0 || st.MaxOutstanding > window {
				t.Fatalf("%s window %d: feed stats %+v", tc.name, window, st)
			}
			// Close's own worker goroutines are gone in the close case, so
			// "at or below" is the assertion.
			if after := settledGoroutines(before); after > before {
				t.Fatalf("%s window %d: %d goroutines before the sweep, %d after", tc.name, window, before, after)
			}
			srv.Close()
		}
	}
}

// TestScoreFeedAbandonedRowsKeepTheirStage: under a deadline long enough to
// be admitted but far shorter than a scalar forward pass of this size, rows
// are abandoned by their waiter while their batch is still reading the
// staging buffer. The sweep must not hand that buffer
// back to the loader until the workers have settled every row — under
// -race, a refill racing a worker's read is a reported data race. Every
// chunk still commits (as skipped when all its rows timed out).
func TestScoreFeedAbandonedRowsKeepTheirStage(t *testing.T) {
	cfg := autoencoder.Config{Visible: 512, Hidden: 512, Lambda: 1e-4, Rho: 0.05, Beta: 0.1}
	for _, prec := range []Precision{F64, F32} {
		srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{
			MaxBatch: 8, Workers: 2, Precision: prec, RequestTimeout: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := randSource(96, cfg.Visible, 5)
		f, c := bulkFeed(t, src, 8, 16, 0)
		res, err := srv.ScoreFeed(OpReconstruct, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Chunks != 6 || res.Rows+res.Failed != 96 {
			t.Fatalf("%v: result %+v", prec, res)
		}
		if st := f.Stats(); st.Leases != 6 || st.Commits != 6 || st.Outstanding != 0 {
			t.Fatalf("%v: feed stats %+v", prec, st)
		}
		srv.Close()
		st := srv.Stats()
		if st.Discarded == 0 {
			t.Fatalf("%v: no row was abandoned in flight under a %v deadline (%+v): the test exercised nothing", prec, srv.cfg.RequestTimeout, st)
		}
		if st.Requests != st.Completed+st.Discarded {
			t.Fatalf("%v: %d admitted, %d completed + %d discarded", prec, st.Requests, st.Completed, st.Discarded)
		}
	}
}
