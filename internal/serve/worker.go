package serve

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"phideep/internal/device"
	"phideep/internal/parallel"
)

// worker executes homogeneous request batches on its host replica, built
// at Config.Precision by the model's family builder. All workers share the
// model's immutable weight snapshot read-only; each owns its replica's
// activation workspace and, with Config.PoolWorkers, a private pool.
//
// The lifecycle fields (ran, restarts, rebuilt), the batch buffer and the
// fault stream are owned by the worker's own goroutine: only loop, the take
// it runs under s.mu and the supervisor it calls touch them.
type worker struct {
	s    *Server
	slot int

	// batch is the buffer take moves pending requests into, MaxBatch long.
	batch []*request

	// ran counts the batches the slot has run; restarts its rebuilds, and
	// rebuilt the values of ran at the rebuilds still inside the restart
	// window, oldest first.
	ran      int
	restarts int
	rebuilt  []int

	pool *parallel.Pool
	rep  replica
	// faults is this incarnation's fault stream (nil draws no faults).
	faults *device.FaultStream
}

// newWorker builds worker i's first incarnation.
func newWorker(s *Server, i int) *worker {
	w := &worker{s: s, slot: i, batch: make([]*request, s.cfg.MaxBatch)}
	w.build()
	return w
}

// build constructs the worker's execution state: private pool (optional),
// the replica, and the fault stream of this incarnation. The supervisor
// calls it again after teardown to rebuild a faulted worker.
func (w *worker) build() {
	cfg := w.s.cfg
	faults, err := device.NewFaultStream(workerFaultConfig(cfg.Faults, w.slot, w.restarts))
	if err != nil {
		panic(fmt.Sprintf("serve: fault config passed New's validation: %v", err))
	}
	w.faults = faults
	if cfg.PoolWorkers > 0 {
		w.pool = parallel.NewPool(cfg.PoolWorkers)
	}
	w.rep = w.s.model.f.replica[cfg.Precision](w.pool, cfg.Level.KernelLevel(), cfg.MaxBatch)
}

// workerLabels marks serving workers role=worker in CPU and goroutine
// profiles (go tool pprof -tagfocus role=worker).
var workerLabels = pprof.WithLabels(context.Background(), pprof.Labels("role", "worker"))

// loop takes and runs batches until the server closes or the slot
// retires. Each take also finishes the batch before it, so a worker takes
// s.mu once per batch; a faulted batch goes to the supervisor, which
// finishes or retries it.
func (w *worker) loop() {
	pprof.SetGoroutineLabels(workerLabels)
	defer w.s.wg.Done()
	defer w.free()
	finished := 0
	for {
		batch := w.take(finished)
		if batch == nil {
			return
		}
		w.ran++
		finished = len(batch)
		if err := w.runSafe(batch); err != nil {
			finished = 0
			if !w.handleFault(batch, err) {
				return
			}
		}
	}
}

// runSafe executes one batch with the panic boundary the supervisor
// relies on: any panic escaping the forward path (a kernel bug, a replica
// invariant tripped mid-batch) surfaces as an error instead of killing the
// process.
func (w *worker) runSafe(batch []*request) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: worker panic: %v", p)
		}
	}()
	return w.run(batch)
}

// run executes one homogeneous batch: draw its faults, run the replica's
// forward pass, then complete every request. A fault that survives the
// retry budget escalates to the caller (the supervisor); the batch is NOT
// completed here in that case.
func (w *worker) run(batch []*request) error {
	if err := w.drawFaults(batch); err != nil {
		return err
	}
	out, cols := w.rep.forward(batch[0].op, batch)
	now := time.Now()
	for i, r := range batch {
		w.s.finishRequest(r, out[i*cols:(i+1)*cols:(i+1)*cols], nil, now)
	}
	return nil
}

// drawFaults decides the batch's fate on its way in, where a device
// replica would stage it: a transient fault is retried up to
// Faults.MaxRetries times, each retry counted in Stats.FaultRetries; a
// permanent fault, or a transient one left when that budget is spent,
// fails the batch with a *device.TransferError for its input bytes.
func (w *worker) drawFaults(batch []*request) error {
	for attempt := 1; ; attempt++ {
		fault, permanent := w.faults.Draw()
		if !fault {
			return nil
		}
		if permanent || attempt > w.faults.Config().MaxRetries {
			bytes := int64(8 * len(batch) * w.s.model.InputDim())
			return &device.TransferError{Op: "copy-in", Bytes: bytes, Attempts: attempt, Permanent: permanent}
		}
		count(&w.s.st.faultRetries, mFaultRetries)
	}
}

// free releases the worker's pool; the replica is plain host memory.
func (w *worker) free() {
	w.rep = nil
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
}
