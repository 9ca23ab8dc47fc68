package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/mlp"
	"phideep/internal/rbm"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func aeTestConfig() autoencoder.Config {
	return autoencoder.Config{Visible: 12, Hidden: 7, Lambda: 1e-4, Rho: 0.05, Beta: 0.1}
}

func randExamples(n, dim int, seed uint64) [][]float64 {
	r := rng.New(seed)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = r.Float64()
		}
	}
	return xs
}

func closeRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d == 0 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(scale, 1)
}

// holdWorkers parks every worker of s inside its replica's forward pass
// (gateReplica), each on a one-row request of its own, so requests
// admitted next stay pending. The returned open releases the workers and
// returns the first error of the held requests once all have returned.
func holdWorkers(t *testing.T, s *Server) (open func() error) {
	t.Helper()
	var entered []<-chan struct{}
	var opens []func()
	for slot := range s.workers {
		e, o := gateReplica(s, slot)
		entered = append(entered, e)
		opens = append(opens, o)
	}
	op, x := s.model.Ops()[0], make([]float64, s.model.InputDim())
	held := make(chan error, len(s.workers))
	for k := range s.workers {
		go func() {
			_, err := s.doCtx(context.Background(), op, x)
			held <- err
		}()
		// One request per worker: the next one must find a free worker.
		for heldCount(entered) <= k {
			time.Sleep(100 * time.Microsecond)
		}
	}
	var once sync.Once
	var first error
	return func() error {
		once.Do(func() {
			for _, o := range opens {
				o()
			}
			for range s.workers {
				if err := <-held; err != nil && first == nil {
					first = err
				}
			}
		})
		return first
	}
}

// heldCount counts the gates a batch has reached.
func heldCount(entered []<-chan struct{}) int {
	n := 0
	for _, e := range entered {
		select {
		case <-e:
			n++
		default:
		}
	}
	return n
}

// checkClosed asserts what Close leaves behind: no pending, retried or
// in-flight request, and no goroutine beyond the count before the server
// was built.
func checkClosed(t *testing.T, s *Server, goroutines int) {
	t.Helper()
	s.mu.Lock()
	queued, retry, inflight := s.queued, len(s.retry), s.inflight
	s.mu.Unlock()
	if queued != 0 || retry != 0 || inflight != 0 {
		t.Fatalf("after Close: %d pending, %d retried batches, %d in-flight requests; want 0", queued, retry, inflight)
	}
	if n := settledGoroutines(goroutines); n > goroutines {
		t.Fatalf("after Close: %d goroutines, %d before the server was built", n, goroutines)
	}
}

// TestFlushOnFull pins the max-batch limit: MaxBatch requests that
// arrive while every worker is busy are taken as one full batch. The held
// worker's own one-row request is the other batch.
func TestFlushOnFull(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	open := holdWorkers(t, srv)

	xs := randExamples(4, cfg.Visible, 2)
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func(x []float64) {
			defer wg.Done()
			if _, err := srv.Encode(x); err != nil {
				t.Errorf("Encode: %v", err)
			}
		}(x)
	}
	for srv.Stats().QueueDepth < 4 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := open(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Batches != 2 || st.FlushFull != 1 {
		t.Fatalf("want the held batch and one full batch, got %+v", st)
	}
	if st.AvgBatchSize != 2.5 {
		t.Fatalf("avg batch size %g, want 2.5", st.AvgBatchSize)
	}
	if st.Requests != 5 || st.Completed != 5 {
		t.Fatalf("requests/completed %d/%d, want 5/5", st.Requests, st.Completed)
	}
}

// TestIdleFlush pins the work-conserving rule: a free worker takes a lone
// request at once as a one-row batch instead of waiting for more.
func TestIdleFlush(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := srv.Encode(randExamples(1, cfg.Visible, 7)[0])
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a request to an idle worker was not taken")
	}
	if st := srv.Stats(); st.Batches != 1 || st.FlushFull != 0 || st.AvgBatchSize != 1 {
		t.Fatalf("want one one-row batch, got %+v", st)
	}
}

// gatedReplica holds its first forward pass until the gate opens.
type gatedReplica struct {
	replica
	entered, gate chan struct{}
	held          *sync.Once
}

func (g gatedReplica) forward(op Op, batch []*request) ([]float64, int) {
	g.held.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.replica.forward(op, batch)
}

// gateReplica blocks worker slot's next forward pass before it starts:
// entered closes once the batch has reached the replica, and the pass
// continues when the returned open func is first called.
func gateReplica(s *Server, slot int) (entered <-chan struct{}, open func()) {
	g := gatedReplica{replica: s.workers[slot].rep, entered: make(chan struct{}), gate: make(chan struct{}), held: new(sync.Once)}
	s.workers[slot].rep = g
	var opened sync.Once
	return g.entered, func() { opened.Do(func() { close(g.gate) }) }
}

// TestBusyQueueFlushesOnBatchDone: while every worker is busy a request
// stays pending, and the worker takes it the moment its batch finishes.
func TestBusyQueueFlushesOnBatchDone(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	entered, open := gateReplica(srv, 0)
	defer open() // before Close, which waits for the held batch

	xs := randExamples(2, cfg.Visible, 8)
	done := make(chan error, 2)
	encode := func(x []float64) {
		_, err := srv.Encode(x)
		done <- err
	}
	go encode(xs[0])
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first request never reached the idle worker")
	}
	go encode(xs[1])
	for srv.Stats().QueueDepth == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-done:
		t.Fatalf("a request returned while the only worker was held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	open()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the pending request was not taken when the busy batch finished")
		}
	}
	if st := srv.Stats(); st.Batches != 2 || st.FlushFull != 0 {
		t.Fatalf("want two one-row batches, got %+v", st)
	}
}

// opRecorder logs the op of every batch its replica runs.
type opRecorder struct {
	replica
	ops *[]Op
}

func (r opRecorder) forward(op Op, batch []*request) ([]float64, int) {
	*r.ops = append(*r.ops, op)
	return r.replica.forward(op, batch)
}

// TestCrossOpOrder: a free worker takes the op whose head request is
// oldest, not the lowest-numbered op. Behind a held worker a reconstruct
// is queued before an encode; when the worker frees up, the reconstruct
// runs first.
func TestCrossOpOrder(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var ops []Op
	srv.workers[0].rep = opRecorder{srv.workers[0].rep, &ops}
	open := holdWorkers(t, srv)

	xs := randExamples(2, cfg.Visible, 10)
	var wg sync.WaitGroup
	for i, call := range []func([]float64) ([]float64, error){srv.Reconstruct, srv.Encode} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := call(xs[i]); err != nil {
				t.Error(err)
			}
		}()
		for srv.Stats().QueueDepth <= i {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if err := open(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The held request is an encode; then the two queued ones, oldest first.
	if want := []Op{OpEncode, OpReconstruct, OpEncode}; !slices.Equal(ops, want) {
		t.Fatalf("batches ran as %v, want %v", ops, want)
	}
}

// TestCloseLeavesNothing: after Close — with requests of two ops in
// flight and pending across two pooled replicas — no server goroutine and
// no pending, retried or in-flight request remains.
func TestCloseLeavesNothing(t *testing.T) {
	cfg := aeTestConfig()
	goroutines := runtime.NumGoroutine()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{
		Workers:     2,
		PoolWorkers: 2,
		MaxBatch:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c, x := range randExamples(12, cfg.Visible, 9) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if c%2 == 0 {
				_, err = srv.Encode(x)
			} else {
				_, err = srv.Reconstruct(x)
			}
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("request %d: %v", c, err)
			}
		}()
	}
	for srv.Stats().Requests < 4 {
		time.Sleep(100 * time.Microsecond)
	}
	srv.Close()
	wg.Wait()
	checkClosed(t, srv, goroutines)
}

// forceFull artificially saturates the admission queue (white-box) and
// returns a release func. In-flight and pending work is unaffected:
// workers subtract their batch sizes from the inflated count.
func forceFull(s *Server) (release func()) {
	s.mu.Lock()
	s.queued += s.cfg.QueueDepth
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.queued -= s.cfg.QueueDepth
		s.notFull.Broadcast()
		s.mu.Unlock()
	}
}

// TestShedOverload pins the Shed policy: a full queue rejects new requests
// with ErrOverloaded while already-admitted requests still complete.
func TestShedOverload(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{
		MaxBatch: 8,
		Policy:   Shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	open := holdWorkers(t, srv)

	// Admit two requests; they stay pending until the worker is released.
	xs := randExamples(3, cfg.Visible, 4)
	results := make(chan error, 2)
	for _, x := range xs[:2] {
		go func(x []float64) {
			_, err := srv.Encode(x)
			results <- err
		}(x)
	}
	// Wait until both are admitted before saturating.
	for srv.Stats().QueueDepth < 2 {
		time.Sleep(time.Millisecond)
	}

	release := forceFull(srv)
	if _, err := srv.Encode(xs[2]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full-queue Encode error = %v, want ErrOverloaded", err)
	}
	release()
	if err := open(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight request dropped: %v", err)
		}
	}
	st := srv.Stats()
	if st.Sheds != 1 {
		t.Fatalf("sheds %d, want 1", st.Sheds)
	}
	if st.Completed != 3 {
		t.Fatalf("completed %d, want 3 (the held request and both admitted)", st.Completed)
	}
}

// TestDegradeOverload pins the Degrade policy: a full queue answers from
// the scalar host path, bit-identical to Params.Encode.
func TestDegradeOverload(t *testing.T) {
	cfg := aeTestConfig()
	p := autoencoder.NewParams(cfg, 7)
	srv, err := New(Autoencoder(cfg, p), Config{Policy: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := randExamples(1, cfg.Visible, 5)[0]
	release := forceFull(srv)
	got, err := srv.Encode(x)
	release()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, cfg.Hidden)
	p.Encode(x, want)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("degraded encode[%d] = %g, want %g", j, got[j], want[j])
		}
	}
	if st := srv.Stats(); st.Degrades != 1 || st.Requests != 0 {
		t.Fatalf("stats %+v, want one degrade and no admissions", st)
	}
}

// TestBlockOverload pins the Block policy: a full queue parks the caller
// until space frees, then the request completes normally.
func TestBlockOverload(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := randExamples(1, cfg.Visible, 6)[0]
	release := forceFull(srv)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Encode(x)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("blocked request returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked request never completed after release")
	}
}

// TestServedMatchesReference is the tentpole equivalence check. For every
// OptLevel it compares coalesced served answers against (a) a direct
// single-example device forward pass at the same level — bitwise equal,
// proving batching composition never changes an answer — and (b) the
// scalar host Params reference — bitwise at Baseline, 1e-12 relative at
// the blocked levels, which reorder the k-summation.
func TestServedMatchesReference(t *testing.T) {
	cfg := aeTestConfig()
	p := autoencoder.NewParams(cfg, 11)
	const n = 13
	xs := randExamples(n, cfg.Visible, 12)

	for _, lvl := range core.OptLevels {
		lvl := lvl
		t.Run(lvl.String(), func(t *testing.T) {
			srv, err := New(Autoencoder(cfg, p), Config{
				Level:    lvl,
				Workers:  2,
				MaxBatch: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			// Direct single-example device path at the same level.
			dev := device.New(sim.XeonPhi5110P(), true, nil)
			ctx := core.NewContext(dev, lvl, 0, 99)
			direct, err := autoencoder.NewInference(ctx, cfg, 4, p)
			if err != nil {
				t.Fatal(err)
			}
			defer direct.Free()
			xbuf := dev.MustAlloc(4, cfg.Visible)
			stage := tensor.NewMatrix(4, cfg.Visible)

			served := make([][]float64, n)
			var wg sync.WaitGroup
			for i := range xs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out, err := srv.Reconstruct(xs[i])
					if err != nil {
						t.Errorf("Reconstruct: %v", err)
						return
					}
					served[i] = out
				}(i)
			}
			wg.Wait()

			for i, x := range xs {
				copy(stage.RowView(0), x)
				dev.CopyIn(xbuf, stage, 0)
				out := direct.Reconstruct(xbuf.Slice(0, 1))
				ref := tensor.NewMatrix(1, out.Cols)
				dev.CopyOut(out, ref)
				want := ref.RowView(0)

				hostWant := make([]float64, cfg.Visible)
				p.Reconstruct(x, hostWant, cfg.Tied)

				for j := range want {
					if served[i][j] != want[j] {
						t.Fatalf("%s: served[%d][%d] = %g, direct device = %g (coalescing changed bits)",
							lvl, i, j, served[i][j], want[j])
					}
					if lvl == core.Baseline {
						if served[i][j] != hostWant[j] {
							t.Fatalf("Baseline: served[%d][%d] = %g, host reference = %g", i, j, served[i][j], hostWant[j])
						}
					} else if !closeRel(served[i][j], hostWant[j], 1e-12) {
						t.Fatalf("%s: served[%d][%d] = %g, host reference = %g beyond 1e-12", lvl, i, j, served[i][j], hostWant[j])
					}
				}
			}
		})
	}
}

// TestRBMServed checks the RBM encode/reconstruct path against the host
// reference at the Improved level.
func TestRBMServed(t *testing.T) {
	cfg := rbm.Config{Visible: 10, Hidden: 6}
	p := rbm.NewParams(cfg, 21)
	srv, err := New(RBM(cfg, p), Config{Level: core.Improved, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i, x := range randExamples(5, cfg.Visible, 22) {
		enc, err := srv.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := srv.Reconstruct(x)
		if err != nil {
			t.Fatal(err)
		}
		wantEnc := make([]float64, cfg.Hidden)
		p.Encode(x, wantEnc)
		wantRec := make([]float64, cfg.Visible)
		p.Reconstruct(x, wantRec, cfg.GaussianVisible)
		for j := range wantEnc {
			if !closeRel(enc[j], wantEnc[j], 1e-12) {
				t.Fatalf("encode[%d][%d] = %g, want %g", i, j, enc[j], wantEnc[j])
			}
		}
		for j := range wantRec {
			if !closeRel(rec[j], wantRec[j], 1e-12) {
				t.Fatalf("reconstruct[%d][%d] = %g, want %g", i, j, rec[j], wantRec[j])
			}
		}
	}
}

// TestMLPServed checks the classifier path against PredictProbs, and that
// unsupported ops fail cleanly on both sides.
func TestMLPServed(t *testing.T) {
	cfg := mlp.Config{Sizes: []int{8, 5, 3}}
	p := mlp.NewParams(cfg, 31)
	srv, err := New(MLP(cfg, p), Config{Level: core.Improved, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i, x := range randExamples(5, 8, 32) {
		probs, err := srv.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		want := p.PredictProbs(cfg, x)
		sum := 0.0
		for j := range want {
			if !closeRel(probs[j], want[j], 1e-12) {
				t.Fatalf("probs[%d][%d] = %g, want %g", i, j, probs[j], want[j])
			}
			sum += probs[j]
		}
		if !closeRel(sum, 1, 1e-9) {
			t.Fatalf("probs sum %g", sum)
		}
	}
	if _, err := srv.Encode(make([]float64, 8)); err == nil {
		t.Fatal("mlp Encode should be unsupported")
	}

	aeCfg := aeTestConfig()
	aeSrv, err := New(Autoencoder(aeCfg, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer aeSrv.Close()
	if _, err := aeSrv.Predict(make([]float64, aeCfg.Visible)); err == nil {
		t.Fatal("autoencoder Predict should be unsupported")
	}
}

// TestCheckpointLoad round-trips parameters through a PHCK file into a
// server and checks the served answers against the original parameters.
func TestCheckpointLoad(t *testing.T) {
	cfg := aeTestConfig()
	p := autoencoder.NewParams(cfg, 41)
	var blob bytes.Buffer
	if err := p.Save(&blob); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.phck")
	if err := core.WriteCheckpoint(path, &core.Checkpoint{Step: 5, Model: blob.Bytes()}); err != nil {
		t.Fatal(err)
	}

	m, err := AutoencoderFromCheckpoint(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := randExamples(1, cfg.Visible, 42)[0]
	got, err := srv.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, cfg.Hidden)
	p.Encode(x, want)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("checkpoint-served encode[%d] = %g, want %g", j, got[j], want[j])
		}
	}

	if _, err := AutoencoderFromCheckpoint(cfg, filepath.Join(t.TempDir(), "missing.phck")); err == nil {
		t.Fatal("missing checkpoint should fail")
	}
}

// TestCopyOnLoad verifies serving never sees mutations made to the source
// parameters after the Model was constructed.
func TestCopyOnLoad(t *testing.T) {
	cfg := aeTestConfig()
	p := autoencoder.NewParams(cfg, 51)
	m := Autoencoder(cfg, p)
	x := randExamples(1, cfg.Visible, 52)[0]
	want := make([]float64, cfg.Hidden)
	p.Encode(x, want)

	// Trash the source after load.
	p.W1.Fill(1e9)
	p.B1[0] = -1e9

	srv, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got, err := srv.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("served encode[%d] = %g, want %g (weights not copied on load)", j, got[j], want[j])
		}
	}
}

// TestClose pins shutdown: work pending when Close starts completes, later
// calls fail with ErrClosed, and Close is idempotent.
func TestClose(t *testing.T) {
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, nil), Config{MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	open := holdWorkers(t, srv)
	x := randExamples(1, cfg.Visible, 61)[0]
	done := make(chan error, 1)
	go func() {
		_, err := srv.Encode(x)
		done <- err
	}()
	for srv.Stats().QueueDepth < 1 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	for srv.Health() != Draining {
		time.Sleep(100 * time.Microsecond)
	}
	if err := open(); err != nil {
		t.Fatal(err)
	}
	<-closed
	if err := <-done; err != nil {
		t.Fatalf("pending request dropped by Close: %v", err)
	}
	if _, err := srv.Encode(x); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Encode error = %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}

// TestConcurrentStress drives many clients across ops and workers — the
// race detector's playground (ci runs this package with -race).
func TestConcurrentStress(t *testing.T) {
	cfg := aeTestConfig()
	p := autoencoder.NewParams(cfg, 71)
	srv, err := New(Autoencoder(cfg, p), Config{
		Level:    core.Improved,
		Workers:  3,
		MaxBatch: 8,
		Policy:   Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			xs := randExamples(perClient, cfg.Visible, uint64(100+c))
			for i, x := range xs {
				var out []float64
				var err error
				if i%2 == 0 {
					out, err = srv.Encode(x)
				} else {
					out, err = srv.Reconstruct(x)
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if len(out) == 0 {
					t.Errorf("client %d: empty result", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Completed != clients*perClient {
		t.Fatalf("completed %d, want %d", st.Completed, clients*perClient)
	}
	if st.Batches == 0 || st.AvgBatchSize < 1 {
		t.Fatalf("no batching recorded: %+v", st)
	}
}

// TestConfigValidation sweeps the rejection paths.
func TestConfigValidation(t *testing.T) {
	cfg := aeTestConfig()
	m := Autoencoder(cfg, nil)
	bad := []Config{
		{Workers: -1},
		{PoolWorkers: -1},
		{MaxBatch: -2},
		{MaxBatch: 8, QueueDepth: 4},
		{Policy: Policy(9)},
	}
	for i, c := range bad {
		if _, err := New(m, c); err == nil {
			t.Fatalf("config %d should be rejected: %+v", i, c)
		}
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil model should be rejected")
	}
	// MaxWait is a deprecated no-op: any value is accepted and ignored.
	ignored, err := New(m, Config{MaxWait: -time.Second})
	if err != nil {
		t.Fatalf("MaxWait is ignored, yet New rejected it: %v", err)
	}
	ignored.Close()
	srv, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Encode(make([]float64, cfg.Visible+1)); err == nil {
		t.Fatal("wrong input length should be rejected")
	}
}
