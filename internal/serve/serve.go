// Package serve is phideep's online-inference subsystem: it turns a
// trained model into a server that answers concurrent single-example
// encode/reconstruct/predict requests. The ROADMAP north star is a system
// "serving heavy traffic from millions of users"; this package supplies
// the missing half of that story on top of the training stack.
//
// # Architecture
//
// Requests are coalesced by a work-conserving micro-batcher: each
// operation has a pending queue that flushes to the workers as soon as a
// replica is idle. Only while every replica is busy does the queue wait,
// and then it flushes when it reaches Config.MaxBatch, when a replica
// finishes a batch, or when its oldest request has waited Config.MaxWait,
// whichever comes first. Batches form from the requests that arrive
// while the replicas work — the batching lever that CHAOS (Viebke et al.)
// shows keeps many-core utilization high — and no request waits on a
// timer while a replica sits idle. Flushed batches execute on a pool of
// workers, each owning one host replica of the model: dense layers
// (nn.Dense, nn.Chain, and the convnet's lowering around them) over weights
// packed once per model and shared read-only, with a private activation
// workspace, running the packed kernels on the worker's pool at the
// config's core OptLevel. There is one replica kind; Config.Precision only
// picks its element type. At F64 it issues the kernels of the model's
// device forward (the NewInference constructors, which training and the
// behaviour lock run) in the same order, so it answers with their bits; at
// F32 the weights are rounded once and answers differ from F64 only by
// float32 rounding, bounded by the cross-precision equivalence suite. The
// request and response surface stays []float64 at both: rows convert at
// the staging boundary.
//
// Admission is controlled by a bounded queue of Config.QueueDepth
// not-yet-dispatched requests. When the queue is full the configured
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
// the batch is re-dispatched once to a healthy replica or completed with
// a typed *WorkerFaultError, and the worker is rebuilt with a fresh
// replica and fault stream under a capped-restart circuit. Exhausted slots
// retire, moving the health state machine Healthy → Degraded → Down (see
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
//	srv, err := serve.New(model, serve.Config{MaxBatch: 16, MaxWait: time.Millisecond})
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
	// MaxBatch is the coalescing limit: a pending queue flushes as soon
	// as it holds this many requests. A queue flushes sooner, at any size,
	// whenever a replica is idle. Default 16.
	MaxBatch int
	// MaxWait bounds the wait while every replica is busy: a pending queue
	// flushes when its oldest request has waited this long, even if the
	// batch is short and no replica has finished. With a replica idle no
	// request waits at all. Default 1ms.
	MaxWait time.Duration
	// QueueDepth bounds the not-yet-dispatched requests across all
	// operations; at the bound, Policy applies. Default 4×MaxBatch, and
	// it must be at least MaxBatch so a full batch can form.
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
	// MaxRestarts caps how many times a faulted worker is rebuilt with a
	// fresh replica before its slot retires, degrading the server. Default
	// 3. -1 disables rebuilds (retire on first worker-fatal fault); below
	// -1 is invalid.
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
	if c.MaxWait == 0 {
		c.MaxWait = time.Millisecond
	}
	if c.MaxWait < 0 {
		return fmt.Errorf("serve: negative max wait %v", c.MaxWait)
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

// maxRestarts is the effective restart budget: the -1 sentinel means zero
// rebuilds.
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
	// redispatched marks a batch already re-dispatched once after a worker
	// fault; guarded by s.mu. It gates the one-retry supervisor policy and
	// tells the receiving worker the batch already left the admission
	// queue accounting.
	redispatched bool
}

// Server coalesces concurrent inference requests into micro-batches and
// executes them on a pool of replica-owning workers. Create with New; all exported
// methods are safe for concurrent use.
type Server struct {
	cfg   Config
	model *Model

	mu       sync.Mutex
	notFull  *sync.Cond
	pending  [numOps][]*request
	timerGen [numOps]uint64
	// timers holds the armed flush timer per op so flushes stop it
	// eagerly instead of letting stale generation-guarded timers fire
	// into the lock; timersArmed counts live timers (tested by the churn
	// suite to prove no pile-up), and timerCalls tracks the same timers
	// so Close can wait out a callback that already fired.
	timers      [numOps]*time.Timer
	timersArmed int
	timerCalls  sync.WaitGroup
	queued      int
	// inflight counts admitted requests whose batch has not finished; Drain
	// waits on it reaching zero.
	inflight int
	// busy counts batches flushed to the workers and not yet finished. A
	// batch finishes when it is answered, failed by its worker or failed
	// by the supervisor; a re-dispatch does not finish it. busy < live
	// means a replica is idle, so a pending queue flushes at once.
	busy int
	// live counts worker slots that have not retired; draining marks a
	// Drain in progress. Both feed healthLocked.
	live     int
	draining bool
	closed   bool

	batches chan []*request
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
	s := &Server{
		cfg:   cfg,
		model: m,
		// Workers slots of headroom beyond QueueDepth: flushes send at
		// most queued (≤ QueueDepth) batches, and each worker can have at
		// most one re-dispatched batch in flight, so sends under s.mu
		// never block.
		batches: make(chan []*request, cfg.QueueDepth+cfg.Workers),
		live:    cfg.Workers,
	}
	s.notFull = sync.NewCond(&s.mu)
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
	s.admitRows(ctx, reqs, x, deadline, false)
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
// one op with their inputs already staged — through the pending queue under
// one acquisition of s.mu, flushing a batch to the workers each time the
// queue reaches MaxBatch. The admission policy applies per
// row at a full queue: Block waits for space (woken by queue space, Close,
// Drain, the last worker retiring, ctx cancellation or the deadline — the
// latter two via one-shot broadcasts armed on first wait), Shed rejects the
// row with ErrOverloaded, Degrade answers it inline from the scalar host
// reference, reading the row's float64 form from host (row i is
// host[i·InputDim:]) with the lock released. A row that is not admitted is
// settled here, so every row of reqs can be awaited alike. Whenever the
// lock is released with a short queue pending, parkLocked flushes it to an
// idle replica or arms the MaxWait timer. last says the caller has no more
// rows coming: a short tail is flushed at once instead of waiting out
// MaxWait.
func (s *Server) admitRows(ctx context.Context, reqs []request, host []float64, deadline time.Time, last bool) {
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
					s.st.deadlineTimeouts.Add(1)
					recordDeadlineTimeout()
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
			s.st.sheds.Add(1)
			recordShed()
			reqs[i].settle(nil, ErrOverloaded)
			i++
		case Degrade:
			s.st.degrades.Add(1)
			recordDegrade()
			s.parkLocked(op)
			s.mu.Unlock()
			reqs[i].settle(s.model.hostInfer(op, host[i*dim:(i+1)*dim]))
			i++
			s.mu.Lock()
		default: // Block
			if waker == nil && !deadline.IsZero() {
				waker = time.AfterFunc(time.Until(deadline), s.notFull.Broadcast)
			}
			if stopCtx == nil && ctx.Done() != nil {
				stopCtx = context.AfterFunc(ctx, s.notFull.Broadcast)
			}
			s.parkLocked(op)
			s.notFull.Wait()
		}
	}
	if last {
		s.flushLocked(op, flushDeadline)
	} else {
		s.parkLocked(op)
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

// enqueueLocked admits r into its op's pending queue and flushes the queue
// when it reaches MaxBatch. Caller holds s.mu and runs
// parkLocked before releasing it with a queue left pending.
func (s *Server) enqueueLocked(r *request) {
	s.queued++
	s.inflight++
	s.st.requests.Add(1)
	if s.pending[r.op] == nil {
		s.pending[r.op] = make([]*request, 0, s.cfg.MaxBatch)
	}
	s.pending[r.op] = append(s.pending[r.op], r)
	if len(s.pending[r.op]) >= s.cfg.MaxBatch {
		s.flushLocked(r.op, flushFull)
	}
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
		s.st.deadlineTimeouts.Add(1)
		recordDeadlineTimeout()
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

// flushKind says why a pending queue was handed to the workers.
type flushKind int

const (
	// flushFull: the queue reached MaxBatch.
	flushFull flushKind = iota
	// flushIdle: a replica was idle, so waiting could only add latency.
	flushIdle
	// flushDeadline: the MaxWait timer fired while every replica was busy,
	// or the server flushed for Close, Drain, a bulk tail or Down.
	flushDeadline
)

// parkLocked runs before s.mu is released with op's queue pending, and
// makes the batcher work-conserving: with a replica idle (busy < live) the
// queue flushes now; only while every replica is busy does it wait for
// more rows, until the MaxWait timer it arms fires or a batch finishes
// (batchDone). Caller holds s.mu.
func (s *Server) parkLocked(op Op) {
	if len(s.pending[op]) > 0 && s.busy < s.live {
		s.flushLocked(op, flushIdle)
		return
	}
	s.armTimerLocked(op)
}

// armTimerLocked starts the MaxWait flush timer for op's pending queue
// unless the queue is empty or already has one. Caller holds s.mu; a set
// s.timers[op] is always the live timer of the queue's current generation,
// because every flush clears it.
func (s *Server) armTimerLocked(op Op) {
	if len(s.pending[op]) == 0 || s.timers[op] != nil {
		return
	}
	gen := s.timerGen[op]
	s.timersArmed++
	s.timerCalls.Add(1)
	s.timers[op] = time.AfterFunc(s.cfg.MaxWait, func() { s.deadlineFlush(op, gen) })
}

// flushLocked hands the pending queue of op to the workers as one busy
// batch, stopping the queue's armed flush timer. Caller holds s.mu. The
// batches channel has a slot for every queued request plus re-dispatch
// headroom, so the send cannot block while the lock is held.
func (s *Server) flushLocked(op Op, kind flushKind) {
	if t := s.timers[op]; t != nil {
		if t.Stop() {
			// Stopped before firing; a false return means the timer
			// callback is already running and will settle the ledger
			// itself in deadlineFlush.
			s.timersArmed--
			s.timerCalls.Done()
		}
		s.timers[op] = nil
	}
	batch := s.pending[op]
	if len(batch) == 0 {
		return
	}
	s.pending[op] = nil
	s.timerGen[op]++
	s.busy++
	s.st.batches.Add(1)
	s.st.batchSizeSum.Add(int64(len(batch)))
	s.st.flushes[kind].Add(1)
	recordBatch(len(batch), kind)
	s.batches <- batch
}

// deadlineFlush fires when the oldest request of a pending queue has
// waited MaxWait. gen detects queues already flushed for another reason
// (the timer is stopped eagerly on flush, but Stop can race the firing).
func (s *Server) deadlineFlush(op Op, gen uint64) {
	defer s.timerCalls.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timersArmed--
	if s.closed || gen != s.timerGen[op] {
		return
	}
	s.timers[op] = nil
	s.flushLocked(op, flushDeadline)
}

// batchDone finishes one batch of n requests, which a worker answered or
// failed, or the supervisor failed: its requests leave the in-flight count
// and its replica is free, so pending queues flush while replicas are idle.
func (s *Server) batchDone(n int) {
	s.mu.Lock()
	s.inflight -= n
	s.busy--
	for op := range s.pending {
		if s.busy >= s.live {
			break
		}
		s.flushLocked(Op(op), flushIdle)
	}
	s.mu.Unlock()
}

// flushAllLocked flushes every pending queue; caller holds s.mu.
func (s *Server) flushAllLocked() {
	for op := range s.pending {
		s.flushLocked(Op(op), flushDeadline)
	}
}

// Close flushes the pending queues, waits for every in-flight batch to
// complete, and releases the workers' pools. Blocked submitters are
// woken with ErrClosed; no admitted request is dropped. When Close
// returns no server goroutine or flush timer is left. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.flushAllLocked()
	s.notFull.Broadcast()
	h := s.healthLocked()
	s.mu.Unlock()
	recordHealth(h)
	close(s.batches)
	s.wg.Wait()
	s.timerCalls.Wait()
}
