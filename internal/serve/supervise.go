package serve

import (
	"slices"
	"time"

	"phideep/internal/device"
)

// This file is the worker supervisor: the recovery policy that runs when a
// batch faults out of a worker (an injected fault that survived the retry
// budget, or a panic caught at the batch boundary by runSafe).
//
// The sequence per fault: count it, rebuild the faulted worker while its
// slot stays within the restart intensity, and — when it does not — retire
// the slot, moving the server's health state machine toward Degraded/Down.
// The batch is retried once, whole, by the next free worker (so one
// worker's fault stays invisible to callers while a live worker remains),
// or completed with a typed *WorkerFaultError. Nothing admitted ever hangs.

// workerFaultConfig derives worker slot's fault stream for its current
// incarnation. Each (slot, restart) pair gets its own seed offset — large
// odd primes keep the derived seeds distinct — so a chaos run is
// deterministic per worker and per rebuild, independent of scheduling.
func workerFaultConfig(base device.FaultConfig, slot, incarnation int) device.FaultConfig {
	return base.WithSeed(base.Seed + uint64(slot)*1_000_003 + uint64(incarnation)*7_919)
}

// handleFault is the supervisor entry point, called on the worker's own
// goroutine when runSafe returns an error for batch. It reports whether the
// worker came back and keeps taking batches; false means its slot retired
// and the worker exits.
func (w *worker) handleFault(batch []*request, cause error) bool {
	s := w.s
	count(&s.st.faultBatches, mFaultBatches)
	ferr := w.faultError(cause)
	alive := w.rebuild()

	s.mu.Lock()
	defer s.mu.Unlock()
	if !alive {
		s.retireLocked(ferr)
	}
	if s.closed || s.live == 0 || batch[0].redispatched {
		s.failLocked(batch, ferr)
		return alive
	}
	// The batch leaves the worker's buffer, which the next take refills.
	batch = slices.Clone(batch)
	for _, r := range batch {
		r.redispatched = true
	}
	s.retry = append(s.retry, batch)
	count(&s.st.redispatches, mRedispatches)
	s.work.Signal()
	return alive
}

// rebuild tears the worker's state down and, while the slot has been
// rebuilt fewer than MaxRestarts times within its last restartWindow
// batches, constructs a fresh incarnation (new replica, new fault stream).
// It reports whether the worker came back.
func (w *worker) rebuild() bool {
	w.free()
	for len(w.rebuilt) > 0 && w.rebuilt[0] <= w.ran-restartWindow {
		w.rebuilt = w.rebuilt[1:]
	}
	if len(w.rebuilt) >= w.s.cfg.maxRestarts() {
		return false
	}
	w.rebuilt = append(w.rebuilt, w.ran)
	w.restarts++
	count(&w.s.st.restarts, mRestarts)
	w.build()
	return true
}

// retireLocked takes a worker slot out of service: the live count drops
// and health moves to Degraded, or to Down when it was the last slot. The
// last retiree fails every pending and retried request with ferr, so no
// admitted request waits for a worker that will never come. Caller holds
// s.mu.
func (s *Server) retireLocked(ferr error) {
	s.live--
	count(&s.st.retired, mRetired)
	if s.live == 0 {
		for op, q := range s.pending {
			s.failLocked(q, ferr)
			s.queued -= len(q)
			clear(q)
			s.pending[op] = q[:0]
		}
		for _, batch := range s.retry {
			s.failLocked(batch, ferr)
		}
		s.retry = nil
		recordQueueDepth(s.queued)
	}
	s.notFull.Broadcast()
	recordHealth(s.healthLocked())
}

// faultError wraps cause with the worker's identity for callers.
func (w *worker) faultError(cause error) error {
	return &WorkerFaultError{Worker: w.slot, Restarts: w.restarts, Cause: cause}
}

// failLocked completes every request of batch with err and finishes them.
// Caller holds s.mu.
func (s *Server) failLocked(batch []*request, err error) {
	now := time.Now()
	for _, r := range batch {
		s.finishRequest(r, nil, err, now)
	}
	s.finishLocked(len(batch))
}

// finishRequest completes one admitted request exactly once. The CAS
// against the request's state decides the race with an abandoning caller
// (deadline/ctx expiry): the winner's outcome stands, a losing worker
// result is discarded safely. The in-flight ledger that Drain watches is
// settled when the request's batch finishes (finishLocked).
func (s *Server) finishRequest(r *request, out []float64, err error, now time.Time) {
	if r.state.CompareAndSwap(reqPending, reqDone) {
		r.out, r.err = out, err
		lat := now.Sub(r.enq)
		s.st.completed.Add(1)
		s.st.latencyNanos.Add(lat.Nanoseconds())
		recordLatency(lat)
	} else {
		count(&s.st.discarded, mDiscarded)
	}
	r.finish()
}
