package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/device"
)

// This file is the deterministic chaos suite for the serving robustness
// layer (ISSUE 9): injected device faults, worker supervision, request
// deadlines and the health state machine. The TestChaos* tests are the
// CI determinism gate — ci.sh runs them twice under -race with fixed
// seeds and they must produce identical outcomes.

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refAnswers computes the fault-free reference answer for every input on
// a pristine single-request server; the chaos runs must match it bitwise.
func refAnswers(t *testing.T, xs [][]float64) [][]float64 {
	t.Helper()
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	outs := make([][]float64, len(xs))
	for i, x := range xs {
		if outs[i], err = srv.Encode(x); err != nil {
			t.Fatalf("reference encode %d: %v", i, err)
		}
	}
	return outs
}

// classifyOutcome buckets a serving error into the typed classes the
// chaos contract allows.
func classifyOutcome(err error) string {
	var wfe *WorkerFaultError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &wfe):
		return "worker-fault"
	case errors.Is(err, ErrDown):
		return "down"
	default:
		return "untyped: " + err.Error()
	}
}

// drawsToFault replays a fault stream and returns the 1-based draw index
// of its first fault (or cap+1 if none within cap). The chaos tests use
// it to select base seeds whose per-worker streams have known shapes, so
// lifecycle assertions hold deterministically instead of statistically.
func drawsToFault(t *testing.T, cfg device.FaultConfig, cap int) int {
	t.Helper()
	fs, err := device.NewFaultStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= cap; i++ {
		if fault, _ := fs.Draw(); fault {
			return i
		}
	}
	return cap + 1
}

type chaosRun struct {
	outs  [][]float64
	kinds []string
	stats BatcherStats
}

// runTransientChaos drives one deterministic transient-fault scenario:
// a single worker (sequential batches, so the fault stream consumption
// is scheduling-independent), batch size 1, a high fault rate with an
// effectively unlimited restart intensity.
func runTransientChaos(t *testing.T, xs [][]float64) chaosRun {
	t.Helper()
	cfg := aeTestConfig()
	goroutines := runtime.NumGoroutine()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{
		MaxBatch:    1,
		MaxRestarts: 1 << 20,
		Faults:      device.FaultConfig{Rate: 0.7, Seed: 42, MaxRetries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := chaosRun{}
	for _, x := range xs {
		out, err := srv.Encode(x)
		run.outs = append(run.outs, out)
		run.kinds = append(run.kinds, classifyOutcome(err))
	}
	run.stats = srv.Stats()
	srv.Close()
	checkClosed(t, srv, goroutines)
	return run
}

// TestChaosTransientDeterministic is the core chaos contract: under
// injected transient faults at a fixed seed, every request completes with
// either an answer bitwise equal to the fault-free run or a typed
// *WorkerFaultError — no hangs, no escaped panics, no dropped admitted
// requests — and the entire faulted run (outcomes and counters) is
// identical across two executions.
func TestChaosTransientDeterministic(t *testing.T) {
	xs := randExamples(60, aeTestConfig().Visible, 3)
	ref := refAnswers(t, xs)

	a := runTransientChaos(t, xs)
	b := runTransientChaos(t, xs)

	if a.stats.FaultBatches == 0 || a.stats.Restarts == 0 {
		t.Fatalf("chaos never engaged: %+v", a.stats)
	}
	if a.stats.Redispatches == 0 {
		t.Fatalf("no faulted batch was re-dispatched: %+v", a.stats)
	}
	ok := 0
	for i, kind := range a.kinds {
		switch kind {
		case "ok":
			if !bitwiseEqual(a.outs[i], ref[i]) {
				t.Fatalf("request %d: faulted-run answer differs from fault-free run", i)
			}
			ok++
		case "worker-fault":
		default:
			t.Fatalf("request %d: outcome %q, want ok or worker-fault", i, kind)
		}
	}
	if ok == 0 {
		t.Fatal("no request survived the transient chaos")
	}
	if got, want := a.stats.Completed, int64(len(xs)); got != want {
		t.Fatalf("completed %d of %d admitted requests — some were dropped", got, want)
	}
	if a.stats.Retired != 0 || a.stats.Discarded != 0 {
		t.Fatalf("unexpected retirements/discards: %+v", a.stats)
	}

	for i := range a.kinds {
		if a.kinds[i] != b.kinds[i] {
			t.Fatalf("request %d: outcome %q vs %q across executions", i, a.kinds[i], b.kinds[i])
		}
		if !bitwiseEqual(a.outs[i], b.outs[i]) {
			t.Fatalf("request %d: answers differ across executions", i)
		}
	}
	type ledger struct{ req, comp, fb, fr, rd, rs int64 }
	la := ledger{a.stats.Requests, a.stats.Completed, a.stats.FaultBatches, a.stats.FaultRetries, a.stats.Redispatches, a.stats.Restarts}
	lb := ledger{b.stats.Requests, b.stats.Completed, b.stats.FaultBatches, b.stats.FaultRetries, b.stats.Redispatches, b.stats.Restarts}
	if la != lb {
		t.Fatalf("counters differ across executions:\n%+v\n%+v", la, lb)
	}
}

// TestChaosPermanentDegraded: with one worker permanently failed, the
// server keeps serving on the survivor and reports Degraded. Batch-to-
// worker assignment is scheduler-dependent (free workers compete for the
// pending requests), so the test pins the outcome instead of the path:
// worker 0's stream is seeded (by replay) to fault within its first few
// draws, worker 1's fault stream is removed (white-box), and sustained
// concurrent load guarantees both workers serve.
// Worker 0 then dies at a fixed point of its own stream wherever its
// batches fall, its fatal batch is salvaged by its retry, and every
// request of the run must succeed bitwise.
func TestChaosPermanentDegraded(t *testing.T) {
	base := device.FaultConfig{Rate: 0.5, PermanentFrac: 1}
	found := false
	for s := uint64(1); s < 10_000; s++ {
		base.Seed = s
		if drawsToFault(t, workerFaultConfig(base, 0, 0), 6) <= 6 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no suitable base seed found")
	}

	mcfg := aeTestConfig()
	xs := randExamples(8, mcfg.Visible, 5)
	ref := refAnswers(t, xs)
	srv, err := New(Autoencoder(mcfg, autoencoder.NewParams(mcfg, 1)), Config{
		Workers:     2,
		MaxBatch:    1,
		MaxRestarts: -1, // retire on first fault
		Faults:      base,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Worker 1 is the designated survivor: without a fault stream it draws
	// no faults, so only worker 0's seeded stream decides the lifecycle.
	srv.workers[1].faults = nil

	// Phase A: concurrent barrage. Each batch draws once, so worker 0 dies
	// within its first six batches; the immortal survivor retries its
	// fatal batch, so every request must still succeed bitwise.
	const clients, perClient = 4, 60
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				j := (g*perClient + i) % len(xs)
				out, err := srv.Encode(xs[j])
				if err != nil {
					t.Errorf("client %d request %d: %v", g, i, err)
					return
				}
				if !bitwiseEqual(out, ref[j]) {
					t.Errorf("client %d request %d: answer differs from fault-free run", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if live := srv.Stats().WorkersLive; live != 1 {
		t.Fatalf("%d workers live after the barrage, want 1 (worker 0 retired)", live)
	}

	// Phase B: the degraded server keeps answering correctly.
	for i := 0; i < 5; i++ {
		out, err := srv.Encode(xs[i%len(xs)])
		if err != nil {
			t.Fatalf("degraded request %d: %v", i, err)
		}
		if !bitwiseEqual(out, ref[i%len(xs)]) {
			t.Fatalf("degraded request %d: wrong answer", i)
		}
	}
	st := srv.Stats()
	if st.Health != "degraded" || st.WorkersLive != 1 || st.WorkersConfigured != 2 {
		t.Fatalf("want degraded 1/2 live, got %+v", st)
	}
	if st.Retired != 1 || st.FaultBatches != 1 || st.Redispatches != 1 {
		t.Fatalf("want exactly one retire/fault/redispatch, got %+v", st)
	}
	if srv.Health() != Degraded {
		t.Fatalf("Health() = %v, want Degraded", srv.Health())
	}
}

// TestChaosDownFailFast: when the last worker retires, the in-flight
// request completes with a typed *WorkerFaultError (never a hang) and
// subsequent requests fail fast with ErrDown; the server reports Down.
func TestChaosDownFailFast(t *testing.T) {
	base := device.FaultConfig{Rate: 0.3, PermanentFrac: 1}
	found := false
	for s := uint64(1); s < 10_000; s++ {
		base.Seed = s
		if drawsToFault(t, workerFaultConfig(base, 0, 0), 30) <= 30 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no suitable base seed found")
	}

	mcfg := aeTestConfig()
	xs := randExamples(4, mcfg.Visible, 7)
	ref := refAnswers(t, xs)
	srv, err := New(Autoencoder(mcfg, autoencoder.NewParams(mcfg, 1)), Config{
		MaxBatch:    1,
		MaxRestarts: -1,
		Faults:      base,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var ferr *WorkerFaultError
	faulted := false
	for i := 0; i < 40; i++ {
		out, err := srv.Encode(xs[i%len(xs)])
		if err == nil {
			if !bitwiseEqual(out, ref[i%len(xs)]) {
				t.Fatalf("request %d: wrong answer before fault", i)
			}
			continue
		}
		if !errors.As(err, &ferr) {
			t.Fatalf("request %d: error %v, want *WorkerFaultError", i, err)
		}
		faulted = true
		break
	}
	if !faulted {
		t.Fatal("worker never faulted within 40 requests")
	}
	if ferr.Worker != 0 {
		t.Fatalf("faulted worker %d, want 0", ferr.Worker)
	}
	var terr *device.TransferError
	if !errors.As(ferr, &terr) || !terr.Permanent {
		t.Fatalf("cause %v, want permanent *device.TransferError", ferr.Cause)
	}

	if _, err := srv.Encode(xs[0]); !errors.Is(err, ErrDown) {
		t.Fatalf("post-down request error %v, want ErrDown", err)
	}
	st := srv.Stats()
	if st.Health != "down" || st.WorkersLive != 0 || st.Retired != 1 {
		t.Fatalf("want down with 0 live and 1 retired, got %+v", st)
	}
}

// TestRestartIntensity pins the restart window: a slot is rebuilt while it
// has fewer than MaxRestarts rebuilds within its last restartWindow
// batches, so faults spaced wider than the window never retire it, and
// faults that outpace the intensity do. It drives one unstarted worker's
// rebuild directly (white-box) at chosen batch counts.
func TestRestartIntensity(t *testing.T) {
	mcfg := aeTestConfig()
	srv, err := New(Autoencoder(mcfg, nil), Config{MaxRestarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	w := newWorker(srv, 0)
	defer w.free()
	for _, step := range []struct {
		ran   int
		alive bool
	}{
		{1, true}, {2, true}, // two rebuilds inside one window
		{3, false},             // a third within it exceeds MaxRestarts
		{restartWindow, false}, // batch 1 is still inside the window
		{restartWindow + 1, true},
		{restartWindow + 2, true}, // batch 2's rebuild has left it too
		{restartWindow + 3, false},
		{10 * restartWindow, true}, // a fault after a quiet window is forgiven
	} {
		w.ran = step.ran
		if alive := w.rebuild(); alive != step.alive {
			t.Fatalf("fault at batch %d: rebuilt %v, want %v (rebuilds at %v)", step.ran, alive, step.alive, w.rebuilt)
		}
	}
	if w.restarts != 5 {
		t.Fatalf("%d rebuilds, want 5", w.restarts)
	}
}

// TestChaosIntensityReachesDown: a slot whose batches fault permanently
// faster than its restart intensity allows retires and takes a one-worker
// server Down — the rebuilds it was allowed do not keep it up.
func TestChaosIntensityReachesDown(t *testing.T) {
	// A base seed whose first three incarnations of slot 0 each fault on
	// their first draw.
	base := device.FaultConfig{Rate: 0.99, PermanentFrac: 1}
	firstDrawsFault := func() bool {
		for k := 0; k < 3; k++ {
			if drawsToFault(t, workerFaultConfig(base, 0, k), 1) != 1 {
				return false
			}
		}
		return true
	}
	for !firstDrawsFault() {
		base.Seed++
	}
	mcfg := aeTestConfig()
	srv, err := New(Autoencoder(mcfg, autoencoder.NewParams(mcfg, 1)), Config{
		MaxBatch:    1,
		MaxRestarts: 2,
		Faults:      base,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	x := randExamples(1, mcfg.Visible, 23)[0]
	// Request 1 faults, is retried after the first rebuild and faults
	// again; request 2's fault finds the intensity spent.
	for i := 0; i < 2; i++ {
		var ferr *WorkerFaultError
		if _, err := srv.Encode(x); !errors.As(err, &ferr) {
			t.Fatalf("request %d: error %v, want *WorkerFaultError", i, err)
		}
	}
	if _, err := srv.Encode(x); !errors.Is(err, ErrDown) {
		t.Fatalf("request after retirement: error %v, want ErrDown", err)
	}
	st := srv.Stats()
	if st.Health != "down" || st.FaultBatches != 3 || st.Redispatches != 1 || st.Restarts != 2 || st.Retired != 1 {
		t.Fatalf("want down after 3 fault batches, 1 redispatch, 2 restarts, 1 retired; got %+v", st)
	}
}

// TestRequestDeadline: a request stranded behind a held worker fails with
// ErrDeadline at Config.RequestTimeout, as does the held request itself,
// and their late batch results are discarded safely instead of completing
// vanished callers.
func TestRequestDeadline(t *testing.T) {
	mcfg := aeTestConfig()
	srv, err := New(Autoencoder(mcfg, autoencoder.NewParams(mcfg, 1)), Config{
		MaxBatch:       16,
		RequestTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	open := holdWorkers(t, srv)
	x := randExamples(1, mcfg.Visible, 9)[0]
	if _, err := srv.Encode(x); !errors.Is(err, ErrDeadline) {
		t.Fatalf("error %v, want ErrDeadline", err)
	}
	// Nothing can answer the held request while its worker is held, so it
	// expires too; wait for its caller to abandon it before the gate opens.
	for srv.Stats().DeadlineTimeouts < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := open(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("held request error %v, want ErrDeadline", err)
	}
	if st := srv.Stats(); st.DeadlineTimeouts != 2 || st.Completed != 0 {
		t.Fatalf("want 2 timeouts and 0 completions, got %+v", st)
	}
	srv.Close() // waits for the worker to run both abandoned requests
	if st := srv.Stats(); st.Discarded != 2 {
		t.Fatalf("want both late results discarded, got %+v", st)
	}
}

// TestContextCancelAndDeadline covers the ctx call variants: cancellation
// abandons an in-flight request with context.Canceled, and a ctx deadline
// surfaces as ErrDeadline (same class as RequestTimeout).
func TestContextCancelAndDeadline(t *testing.T) {
	mcfg := aeTestConfig()
	srv, err := New(Autoencoder(mcfg, autoencoder.NewParams(mcfg, 1)), Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	open := holdWorkers(t, srv)
	defer open()
	x := randExamples(1, mcfg.Visible, 11)[0]

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := srv.EncodeContext(ctx, x)
		errc <- err
	}()
	for srv.Stats().QueueDepth == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dcancel()
	if _, err := srv.EncodeContext(dctx, x); !errors.Is(err, ErrDeadline) {
		t.Fatalf("error %v, want ErrDeadline", err)
	}
}

// TestInputCopiedAtAdmission is the regression test for the aliasing
// hazard: a caller that mutates its input slice right after submitting
// must not corrupt the in-flight request (the request owns a private copy
// taken at admission).
func TestInputCopiedAtAdmission(t *testing.T) {
	mcfg := aeTestConfig()
	xs := randExamples(2, mcfg.Visible, 13)
	ref := refAnswers(t, xs)

	srv, err := New(Autoencoder(mcfg, autoencoder.NewParams(mcfg, 1)), Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	open := holdWorkers(t, srv)

	x1 := append([]float64(nil), xs[0]...)
	var out1 []float64
	var err1 error
	done := make(chan struct{})
	go func() {
		defer close(done)
		out1, err1 = srv.Encode(x1)
	}()
	for srv.Stats().QueueDepth == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	for j := range x1 {
		x1[j] = -1e9 // caller reuses its buffer while the request is queued
	}
	errc := make(chan error, 1)
	go func() { // completes the pair
		_, err := srv.Encode(xs[1])
		errc <- err
	}()
	for srv.Stats().QueueDepth < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := open(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	<-done
	if err1 != nil {
		t.Fatal(err1)
	}
	if !bitwiseEqual(out1, ref[0]) {
		t.Fatal("mutating the caller's slice after submit changed the in-flight answer")
	}
}

// TestDrainGraceful: Drain stops admission (ErrClosed, health draining),
// lets the workers take what is pending, and returns once every admitted
// request has completed.
func TestDrainGraceful(t *testing.T) {
	mcfg := aeTestConfig()
	srv, err := New(Autoencoder(mcfg, autoencoder.NewParams(mcfg, 1)), Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	open := holdWorkers(t, srv)
	xs := randExamples(2, mcfg.Visible, 19)

	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(x []float64) {
			defer wg.Done()
			if _, err := srv.Encode(x); err != nil {
				t.Errorf("encode during drain: %v", err)
			}
		}(xs[k])
	}
	for srv.Stats().QueueDepth < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	for srv.Health() != Draining {
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned with requests pending behind a held worker: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	if err := open(); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	if st := srv.Stats(); st.Health != "draining" || st.Completed != 3 {
		t.Fatalf("want draining with the held and both pending requests completed, got %+v", st)
	}
	if _, err := srv.Encode(xs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain error %v, want ErrClosed", err)
	}
}
