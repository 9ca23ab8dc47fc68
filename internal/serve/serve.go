// Package serve is phideep's online-inference subsystem: it turns a
// trained model into a server that answers concurrent single-example
// encode/reconstruct/predict requests. The ROADMAP north star is a system
// "serving heavy traffic from millions of users"; this package supplies
// the missing half of that story on top of the training stack.
//
// # Architecture
//
// Requests are coalesced by a pull-based micro-batcher. Each operation has
// a pending queue; a worker that frees up takes its next batch itself, up
// to Config.MaxBatch requests of the operation whose head request is
// oldest, and sleeps until admission signals when nothing is pending. No
// request waits while a replica is idle and none waits on a timer: batches
// form from the requests that arrive while the replicas work, so at low
// load they hold one row and grow toward MaxBatch as load rises — the
// batching lever that CHAOS (Viebke et al.) shows keeps many-core
// utilization high. Each worker owns one host replica of the model: dense
// layers (nn.Dense, nn.Chain, and the convnet's lowering around them) over
// weights packed once per model and shared read-only, with a private
// activation workspace, running the packed kernels on the worker's pool at
// the config's core OptLevel. There is one replica kind; Config.Precision
// only picks its element type. At F64 it issues the kernels of the model's
// device forward (the NewInference constructors, which training and the
// behaviour lock run) in the same order, so it answers with their bits; at
// F32 the weights are rounded once and answers differ from F64 only by
// float32 rounding, bounded by the cross-precision equivalence suite. The
// request and response surface stays []float64 at both: rows convert at
// the staging boundary.
//
// Admission is controlled by a bounded queue of Config.QueueDepth
// requests no worker has taken yet. When the queue is full the configured
// Policy applies: Block waits for space, Shed fails fast with
// ErrOverloaded, and Degrade answers inline from the scalar host
// reference (Params.Encode and friends) — correct but slow, and
// bit-identical to the F64 replicas only at core.Baseline.
//
// # Robustness
//
// The serving plane composes with the deterministic PCIe fault model the
// training plane already survives (DESIGN.md §14). Config.Faults arms one
// seeded fault stream per worker incarnation, at both precisions. Each
// batch draws from it before its forward pass, as the staging copy of a
// device replica would: a transient fault is retried within
// Faults.MaxRetries, and a supervisor catches worker-fatal faults
// (permanent faults, retry exhaustion, panics) at the batch boundary:
// the batch is retried once, whole, by the next free worker or completed
// with a typed *WorkerFaultError, and the worker is rebuilt with a fresh
// replica and fault stream while its slot stays within the restart
// intensity (Config.MaxRestarts). Slots that exceed it retire, moving the health state machine Healthy → Degraded → Down (see
// Health). Per-request deadlines (Config.RequestTimeout, or ctx on the
// *Context call variants) guarantee no caller ever hangs: expired
// requests return ErrDeadline and the late batch result is discarded
// safely. Drain provides graceful shutdown: admission stops while
// in-flight requests complete.
//
// # Model loading
//
// Weights are immutable copies taken at load time (copy-on-load), so a
// Server never races with continued training on the source model. Load
// from a PHCK checkpoint written by core.Trainer or cmd/phitrain
// (AutoencoderFromCheckpoint and friends), or hand off in-process from a
// trained device model via its Download method:
//
//	model := serve.Autoencoder(cfg, trained.Download())
//	srv, err := serve.New(model, serve.Config{MaxBatch: 16})
//
// Every stage records into internal/metrics (serve.queue.depth,
// serve.batch.size, serve.latency.seconds, serve.sheds, serve.degrades,
// serve.fault.*, serve.restart.*, serve.health) when collection is
// enabled, and Server.Stats returns a BatcherStats snapshot
// unconditionally.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"phideep/internal/core"
	"phideep/internal/device"
)

// Op identifies a serving operation.
type Op int

const (
	// OpEncode maps an input to its hidden representation (autoencoder,
	// RBM).
	OpEncode Op = iota
	// OpReconstruct round-trips an input through the model (autoencoder,
	// RBM mean-field).
	OpReconstruct
	// OpPredict returns softmax class probabilities (MLP).
	OpPredict

	numOps = 3
)

func (o Op) String() string {
	switch o {
	case OpEncode:
		return "encode"
	case OpReconstruct:
		return "reconstruct"
	case OpPredict:
		return "predict"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Policy selects the admission-control behavior when the request queue is
// full.
type Policy int

const (
	// Block waits until queue space frees up (backpressure onto callers).
	Block Policy = iota
	// Shed fails fast: the request is rejected with ErrOverloaded and no
	// in-flight work is dropped.
	Shed
	// Degrade answers on the caller's goroutine from the scalar host
	// reference instead of queueing — graceful degradation that trades
	// the replicas' throughput for bounded queueing.
	Degrade
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Shed:
		return "shed"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Precision selects the element type of the worker replicas.
type Precision int

const (
	// F64 (the default) serves at float64, with the bits of the model's
	// device forward — the path training runs.
	F64 Precision = iota
	// F32 serves from float32 weight snapshots (rounded once, on the first
	// replica build) on the packed f32 kernels: double the SIMD lanes per
	// FMA, half the memory traffic. Requests and responses stay []float64
	// at the API surface; rounding happens at the staging boundary. The
	// Degrade fallback remains the f64 scalar host reference.
	F32

	numPrecisions = 2
)

func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ErrOverloaded is returned by serving calls under the Shed policy when
// the admission queue is full.
var ErrOverloaded = errors.New("serve: overloaded")

// UnsupportedOpError reports a serving call whose operation the loaded
// model family does not implement — asking an autoencoder to Predict, or a
// classifier to Reconstruct. Every path returns it, including the Degrade
// fallback, which used to assume all operations exist for all families.
type UnsupportedOpError struct {
	Kind string // model family, as reported by Model.Kind
	Op   Op
}

func (e *UnsupportedOpError) Error() string {
	return fmt.Sprintf("serve: %s model does not support %s", e.Kind, e.Op)
}

// ErrClosed is returned by serving calls after Close or Drain.
var ErrClosed = errors.New("serve: server closed")

// Config parameterizes a Server. The zero value of every field selects a
// sensible default (see each field).
type Config struct {
	// Level is the optimization-ladder step whose kernel level the workers
	// execute at (core.Baseline by default — set core.Improved for the
	// full stack).
	Level core.OptLevel
	// Workers is the number of workers; each owns a private model replica.
	// Default 1.
	Workers int
	// PoolWorkers sizes the Go worker pool behind each replica's parallel
	// kernels; 0 runs kernels on the worker goroutine (deterministic and
	// cheap for small models).
	PoolWorkers int
	// MaxBatch is the coalescing limit: a free worker takes at most this
	// many requests of one operation as its batch. Default 16.
	MaxBatch int
	// MaxWait is ignored: a free worker takes whatever is pending, so no
	// request waits on a flush timer.
	//
	// Deprecated: the batcher has no flush timer; MaxWait remains only so
	// existing configs compile.
	MaxWait time.Duration
	// QueueDepth bounds the admitted requests no worker has taken yet,
	// across all operations; at the bound, Policy applies. Default
	// 4×MaxBatch, and it must be at least MaxBatch so a full batch can
	// form.
	QueueDepth int
	// Policy is the full-queue behavior (Block by default).
	Policy Policy
	// Precision is the element type of the worker replicas: F64 (the
	// default) answers with the bits of the model's device forward; F32
	// serves from float32 weight snapshots on the packed f32 kernels,
	// trading ~1e-6-grade per-element differences (see the equivalence
	// suite) for raw latency.
	Precision Precision
	// Seed is the seed of the run the server belongs to, for callers that
	// record one. Inference draws no samples, so it does not affect
	// answers.
	Seed uint64

	// Faults arms the deterministic PCIe fault model on every worker, at
	// both precisions (a zero Rate leaves it off; the zero value is
	// valid). Each worker incarnation draws from its own derived stream —
	// seeded from Faults.Seed, the slot index, and the rebuild count — once
	// per batch before its forward pass, so a chaos run replays exactly,
	// independent of goroutine scheduling. A transient fault is retried up
	// to Faults.MaxRetries times (default 4) and counted in
	// BatcherStats.FaultRetries; a permanent fault, or a transient one left
	// when that budget is spent, escalates to the supervisor.
	Faults device.FaultConfig
	// MaxRestarts is the restart intensity of a worker slot: a faulted
	// worker is rebuilt with a fresh replica as long as its slot was
	// rebuilt fewer than MaxRestarts times within its last restartWindow
	// (1000) batches; a fault beyond that retires the slot, degrading the
	// server. The period counts the slot's own batches, not seconds, so a
	// seeded chaos run replays exactly; a slot whose faults outpace the
	// intensity still retires. Default 3. -1 disables rebuilds (retire on
	// first worker-fatal fault); below -1 is invalid.
	MaxRestarts int
	// RequestTimeout is the per-request deadline measured from admission
	// attempt to answer. Expired requests fail with ErrDeadline — whether
	// still waiting for queue space, batched, or in flight on a worker —
	// and a late worker result is discarded safely. 0 disables the
	// deadline; negative is invalid. The *Context call variants compose:
	// the earlier of ctx's deadline and RequestTimeout applies.
	RequestTimeout time.Duration
}

func (c *Config) fillDefaults() error {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Workers < 0 {
		return fmt.Errorf("serve: negative worker count %d", c.Workers)
	}
	if c.PoolWorkers < 0 {
		return fmt.Errorf("serve: negative pool size %d", c.PoolWorkers)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("serve: negative max batch %d", c.MaxBatch)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.QueueDepth < c.MaxBatch {
		return fmt.Errorf("serve: queue depth %d below max batch %d", c.QueueDepth, c.MaxBatch)
	}
	switch c.Policy {
	case Block, Shed, Degrade:
	default:
		return fmt.Errorf("serve: unknown policy %d", int(c.Policy))
	}
	switch c.Precision {
	case F64, F32:
	default:
		return fmt.Errorf("serve: unknown precision %d", int(c.Precision))
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.MaxRestarts < -1 {
		return fmt.Errorf("serve: invalid max restarts %d", c.MaxRestarts)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("serve: negative request timeout %v", c.RequestTimeout)
	}
	return nil
}

// restartWindow is the period of the restart intensity, in a slot's
// batches: MaxRestarts rebuilds are allowed within any restartWindow
// consecutive batches of one slot.
const restartWindow = 1000

// maxRestarts is the effective restart intensity: the -1 sentinel means
// zero rebuilds.
func (c *Config) maxRestarts() int {
	if c.MaxRestarts < 0 {
		return 0
	}
	return c.MaxRestarts
}

// request lifecycle states, raced between the completing worker (or
// supervisor) and an abandoning caller via the state CAS.
const (
	reqPending int32 = iota
	reqDone
	reqAbandoned
)

// request is one serving call, completed by a worker or the supervisor, or
// settled at admission (rejected, or answered by the degrade path). A
// single request owns a private copy of its input, so the caller may reuse
// its slice the moment the call returns, even after a deadline abandons
// the request while its batch is still in flight; a bulk row views a
// staging buffer that ScoreFeed refills only after settled reports every
// row of the chunk finished. The worker converts in to its replica's
// precision when it stages the batch.
type request struct {
	op   Op
	in   []float64
	out  []float64
	err  error
	done chan struct{}
	enq  time.Time
	// settled, when non-nil, is told once nothing will read the input
	// again (the bulk path's staging-buffer release).
	settled *sync.WaitGroup

	// state arbitrates completion vs abandonment (reqPending → reqDone by
	// the worker, reqPending → reqAbandoned by a deadline-expired caller);
	// the loser of the CAS race discards its side.
	state atomic.Int32
	// redispatched marks a batch already retried once after a worker
	// fault; guarded by s.mu. It gates the one-retry supervisor policy.
	redispatched bool
}

// Server coalesces concurrent inference requests into micro-batches and
// executes them on a pool of replica-owning workers. Create with New; all exported
// methods are safe for concurrent use.
type Server struct {
	cfg   Config
	model *Model

	mu sync.Mutex
	// work wakes free workers: admission signals it once per request, a
	// retried batch signals it, Close broadcasts it.
	work *sync.Cond
	// notFull wakes Block-policy admissions waiting for queue space: each
	// take broadcasts it, and so do Close, Drain and a retirement.
	notFull *sync.Cond
	// idle wakes Drain when the in-flight count reaches zero.
	idle *sync.Cond
	// pending holds each op's admitted requests no worker has taken yet,
	// oldest first; queued is their total, bounded by QueueDepth.
	pending [numOps][]*request
	queued  int
	// retry holds faulted batches awaiting their one retry; a free worker
	// takes them before any pending request.
	retry [][]*request
	// inflight counts admitted requests that have not finished; Drain waits
	// on it reaching zero.
	inflight int
	// live counts worker slots that have not retired; draining marks a
	// Drain in progress. Both feed healthLocked.
	live     int
	draining bool
	closed   bool

	workers []*worker
	wg      sync.WaitGroup

	// bulkStages caches ScoreFeed's staging buffers between sweeps; a
	// sweep takes them and puts them back, so they are allocated once per
	// server and chunk geometry. Guarded by bulkMu.
	bulkMu     sync.Mutex
	bulkStages []*bulkStage

	st counters
}

// New builds a server for the model: Workers host replicas plus the
// micro-batcher. The model's weights were already copied at load time,
// so the source of the parameters may keep training.
func New(m *Model, cfg Config) (*Server, error) {
	if m == nil {
		return nil, errors.New("serve: nil model")
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	// Checked here: the host replicas build no device model that would
	// reject a bad geometry.
	if err := m.f.validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{cfg: cfg, model: m, live: cfg.Workers}
	s.work = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.workers = append(s.workers, newWorker(s, i))
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go w.loop()
	}
	recordHealth(Healthy)
	return s, nil
}

// Encode maps one example to its hidden representation (autoencoder, RBM).
func (s *Server) Encode(x []float64) ([]float64, error) {
	return s.doCtx(context.Background(), OpEncode, x)
}

// Reconstruct round-trips one example through the model (autoencoder, RBM
// mean-field reconstruction).
func (s *Server) Reconstruct(x []float64) ([]float64, error) {
	return s.doCtx(context.Background(), OpReconstruct, x)
}

// Predict returns the softmax class probabilities for one example (MLP).
func (s *Server) Predict(x []float64) ([]float64, error) {
	return s.doCtx(context.Background(), OpPredict, x)
}

// EncodeContext is Encode honoring ctx: cancellation abandons the request
// (its batch result is discarded safely) and a ctx deadline composes with
// Config.RequestTimeout — the earlier one applies, surfacing as
// ErrDeadline.
func (s *Server) EncodeContext(ctx context.Context, x []float64) ([]float64, error) {
	return s.doCtx(ctx, OpEncode, x)
}

// ReconstructContext is Reconstruct honoring ctx (see EncodeContext).
func (s *Server) ReconstructContext(ctx context.Context, x []float64) ([]float64, error) {
	return s.doCtx(ctx, OpReconstruct, x)
}

// PredictContext is Predict honoring ctx (see EncodeContext).
func (s *Server) PredictContext(ctx context.Context, x []float64) ([]float64, error) {
	return s.doCtx(ctx, OpPredict, x)
}

// Model returns the served model description.
func (s *Server) Model() *Model { return s.model }

// doCtx validates, stages, admits and awaits one request: the one-row case
// of the admission path the bulk sweep feeds chunks through.
func (s *Server) doCtx(ctx context.Context, op Op, x []float64) ([]float64, error) {
	if s.model.OutputDim(op) == 0 {
		return nil, &UnsupportedOpError{Kind: s.model.Kind(), Op: op}
	}
	if len(x) != s.model.InputDim() {
		return nil, fmt.Errorf("serve: input length %d, want %d", len(x), s.model.InputDim())
	}
	// Copy at admission: the request must not alias the caller's slice,
	// which the caller is free to reuse the moment this call returns —
	// and, under a deadline, even before the batch stages.
	reqs := []request{{op: op, in: append([]float64(nil), x...), done: make(chan struct{}), enq: time.Now()}}
	r := &reqs[0]
	deadline := s.deadlineFor(ctx, r.enq)
	s.admitRows(ctx, reqs, x, deadline)
	return s.await(ctx, r, deadline)
}

// deadlineFor is the deadline of requests enqueued at enq: the earlier of
// Config.RequestTimeout and ctx's own, zero for none.
func (s *Server) deadlineFor(ctx context.Context, enq time.Time) time.Time {
	var deadline time.Time
	if s.cfg.RequestTimeout > 0 {
		deadline = enq.Add(s.cfg.RequestTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	return deadline
}

// admitRows is the admission path: it takes reqs — a run of requests for
// one op with their inputs already staged — into the pending queue under
// one acquisition of s.mu, signalling a free worker per request. The
// admission policy applies per row at a full queue: Block waits for space
// (woken by a take, Close, Drain, the last worker retiring, ctx
// cancellation or the deadline — the latter two via one-shot broadcasts
// armed on first wait), Shed rejects the row with ErrOverloaded, Degrade
// answers it inline from the scalar host reference, reading the row's
// float64 form from host (row i is host[i·InputDim:]) with the lock
// released. A row that is not admitted is settled here, so every row of
// reqs can be awaited alike.
func (s *Server) admitRows(ctx context.Context, reqs []request, host []float64, deadline time.Time) {
	op, dim := reqs[0].op, s.model.InputDim()
	var waker *time.Timer
	var stopCtx func() bool
	s.mu.Lock()
	for i := 0; i < len(reqs); {
		if err := s.refusalLocked(ctx, deadline); err != nil {
			// Nothing the rows behind this one depend on can change while
			// the lock is held: they are refused alike. An expired ctx is
			// the caller's own doing and is not counted as a timeout.
			timedOut := ctx.Err() == nil && errors.Is(err, ErrDeadline)
			for ; i < len(reqs); i++ {
				if timedOut {
					count(&s.st.deadlineTimeouts, mDeadlines)
				}
				reqs[i].settle(nil, err)
			}
			break
		}
		if s.queued < s.cfg.QueueDepth {
			s.enqueueLocked(&reqs[i])
			i++
			continue
		}
		switch s.cfg.Policy {
		case Shed:
			count(&s.st.sheds, mSheds)
			reqs[i].settle(nil, ErrOverloaded)
			i++
		case Degrade:
			count(&s.st.degrades, mDegrades)
			s.mu.Unlock()
			reqs[i].settle(s.model.hostInfer(op, host[i*dim:(i+1)*dim]))
			i++
			s.mu.Lock()
		default: // Block
			if waker == nil && !deadline.IsZero() {
				waker = time.AfterFunc(time.Until(deadline), s.broadcaster(s.notFull))
			}
			if stopCtx == nil && ctx.Done() != nil {
				stopCtx = context.AfterFunc(ctx, s.broadcaster(s.notFull))
			}
			s.notFull.Wait()
		}
	}
	recordQueueDepth(s.queued)
	s.mu.Unlock()
	if waker != nil {
		waker.Stop()
	}
	if stopCtx != nil {
		stopCtx()
	}
}

// broadcaster returns a func that broadcasts c under s.mu, for the timers
// and ctx callbacks that wake waiters to re-check a deadline: a waiter
// checks it between taking the lock and Wait, where a broadcast made
// without the lock could land unseen.
func (s *Server) broadcaster(c *sync.Cond) func() {
	return func() {
		s.mu.Lock()
		c.Broadcast()
		s.mu.Unlock()
	}
}

// refusalLocked returns why the server cannot admit a request right now,
// nil when only queue space stands in the way. Caller holds s.mu.
func (s *Server) refusalLocked(ctx context.Context, deadline time.Time) error {
	switch {
	case ctx.Err() != nil:
		return ctxErr(ctx)
	case !deadline.IsZero() && !time.Now().Before(deadline):
		return ErrDeadline
	case s.closed || s.draining:
		return ErrClosed
	case s.live == 0:
		return ErrDown
	}
	return nil
}

// enqueueLocked admits r into its op's pending queue and wakes a free
// worker, if one is waiting, to take it. Caller holds s.mu.
func (s *Server) enqueueLocked(r *request) {
	s.queued++
	s.inflight++
	s.st.requests.Add(1)
	s.pending[r.op] = append(s.pending[r.op], r)
	s.work.Signal()
}

// settle completes a request that never reached a worker: refused or shed
// at admission, or answered inline by the degrade path.
func (r *request) settle(out []float64, err error) {
	r.out, r.err = out, err
	r.state.Store(reqDone)
	r.finish()
}

// finish publishes the request's outcome to its waiter and releases its
// input.
func (r *request) finish() {
	close(r.done)
	if r.settled != nil {
		r.settled.Done()
	}
}

// await blocks until the request completes or its deadline/ctx expires.
// An expiring caller races the completing worker through the request's
// state CAS: if the caller wins, the eventual result is discarded; if the
// worker already won, the real answer is returned.
func (s *Server) await(ctx context.Context, r *request, deadline time.Time) ([]float64, error) {
	if deadline.IsZero() && ctx.Done() == nil {
		<-r.done
		return r.out, r.err
	}
	select {
	case <-r.done: // already settled: no timer to arm
		return r.out, r.err
	default:
	}
	var timerC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timerC = t.C
	}
	select {
	case <-r.done:
		return r.out, r.err
	case <-timerC:
		if s.abandon(r) {
			return nil, ErrDeadline
		}
	case <-ctx.Done():
		if s.abandon(r) {
			return nil, ctxErr(ctx)
		}
	}
	// Lost the abandon race: the worker completed first; its answer is
	// (about to be) published.
	<-r.done
	return r.out, r.err
}

// abandon tries to mark r abandoned; it reports whether the caller won the
// race against the completing worker.
func (s *Server) abandon(r *request) bool {
	if r.state.CompareAndSwap(reqPending, reqAbandoned) {
		count(&s.st.deadlineTimeouts, mDeadlines)
		return true
	}
	return false
}

// ctxErr maps a ctx expiry to the server's error surface: deadline expiry
// becomes ErrDeadline (same class as RequestTimeout), cancellation stays
// context.Canceled.
func ctxErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ctx.Err()
}

// take finishes the worker's previous batch, whose finished requests leave
// the in-flight count, then blocks until there is work and returns the
// worker's next batch: a faulted batch awaiting its retry first, else up to
// MaxBatch requests of the op whose head request is oldest. It returns nil
// once the server is closed and nothing is left to take.
func (w *worker) take(finished int) []*request {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finishLocked(finished)
	for {
		if len(s.retry) > 0 {
			batch := s.retry[0]
			s.retry = s.retry[1:]
			return batch
		}
		if op := s.oldestLocked(); op >= 0 {
			return w.takeLocked(op)
		}
		if s.closed {
			return nil
		}
		s.work.Wait()
	}
}

// oldestLocked returns the op whose head request was admitted first, -1
// when nothing is pending. Caller holds s.mu.
func (s *Server) oldestLocked() Op {
	op := Op(-1)
	for o, q := range s.pending {
		if len(q) > 0 && (op < 0 || q[0].enq.Before(s.pending[op][0].enq)) {
			op = Op(o)
		}
	}
	return op
}

// takeLocked moves up to MaxBatch requests from the head of op's pending
// queue into the worker's batch buffer and frees their queue space.
// Caller holds s.mu.
func (w *worker) takeLocked(op Op) []*request {
	s := w.s
	q := s.pending[op]
	batch := w.batch[:copy(w.batch, q)]
	n := len(batch)
	rest := copy(q, q[n:])
	clear(q[rest:])
	s.pending[op] = q[:rest]
	s.queued -= n
	s.notFull.Broadcast()
	recordQueueDepth(s.queued)
	full := n == s.cfg.MaxBatch
	s.st.batches.Add(1)
	s.st.batchSizeSum.Add(int64(n))
	if full {
		s.st.flushFull.Add(1)
	}
	recordBatch(n, full)
	return batch
}

// finishLocked retires n finished requests from the in-flight count and
// wakes Drain when none is left. Caller holds s.mu.
func (s *Server) finishLocked(n int) {
	s.inflight -= n
	if s.inflight == 0 {
		s.idle.Broadcast()
	}
}

// Close stops admission, lets the workers take and finish every admitted
// request, and releases their pools. Blocked submitters are woken with
// ErrClosed; no admitted request is dropped. When Close returns no server
// goroutine is left. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.work.Broadcast()
	s.notFull.Broadcast()
	recordHealth(s.healthLocked())
	s.mu.Unlock()
	s.wg.Wait()
}
