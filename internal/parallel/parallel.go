// Package parallel is phideep's OpenMP substitute: a long-lived team of
// goroutines with parallel-for and reductions.
//
// The paper parallelizes loop nests with OpenMP and observes that the
// granularity of parallel regions matters — small loop bodies drown in
// synchronization cost (§IV.B.2). This package mirrors that programming
// model: a fixed team, static or dynamic iteration scheduling, and
// fork/join semantics per For call. The *simulated* fork/join cost that
// drives the paper's timing figures is charged separately by
// internal/device; this package provides the real concurrent execution used
// when kernels run numerically.
//
// The fork/join works like OpenMP's master thread: the submitting
// goroutine is the team's first member, so a pool of w workers starts w−1
// helpers. A region is a list of blocks that members claim by index until
// none is left, and a block's range depends only on its index, never on
// who runs it. The caller wakes at most one helper per block after the
// first (a non-blocking send on a buffered channel) and joins only the
// blocks a helper has claimed, so a descheduled helper never holds a
// region up. One mutex guards the descriptor and the claim counters; a
// region allocates nothing.
//
// A region submitted through Cost carries an estimate of its serial run
// time. When each of its blocks would take less than waking a helper
// costs, the caller runs the blocks alone, in index order, with no wake,
// lock or join: the same blocks a fork would run, so the results are the
// same bits either way.
package parallel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"phideep/internal/metrics"
)

// Observability handles (DESIGN.md §"Observability"). Regions, items and
// durations are recorded per fork/join submission — For, ForRanger and
// ReduceSum each count as one region, whether it forked or ran inline —
// and only when metrics.Enabled() holds, so the allocation-free steady
// state of the hot loop is untouched when collection is off.
// parallel.regions.inline counts the regions that woke no helper.
var (
	mRegions       = metrics.Default().Counter("parallel.regions")
	mRegionsInline = metrics.Default().Counter("parallel.regions.inline")
	mRegionItems   = metrics.Default().Counter("parallel.region.items")
	mRegionSeconds = metrics.Default().Histogram("parallel.region.seconds", metrics.ExpBuckets(1e-6, 4, 12)...)
	mPoolWorkers   = metrics.Default().Gauge("parallel.workers")
)

// Schedule selects how loop iterations are assigned to workers, mirroring
// OpenMP's schedule(static) and schedule(dynamic).
type Schedule int

const (
	// Static pre-partitions the iteration space into one contiguous block
	// per worker. Lowest overhead; best for uniform bodies.
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks as workers become free. Higher
	// overhead; best for irregular bodies.
	Dynamic
)

func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Ranger is an iteration body passed by reference. ForRanger callers that
// reuse a Ranger value (e.g. from a sync.Pool) submit loops with zero
// allocations, where a closure passed to For would be allocated at the call
// site on every invocation.
type Ranger interface {
	// Range processes iterations [lo, hi).
	Range(lo, hi int)
}

// Pool is a fixed team executing parallel loops: the goroutine that
// submits a region plus Workers()−1 helpers. The zero value is not usable;
// call NewPool. A Pool is safe for use from one goroutine at a time
// (nested For calls from loop bodies are not supported, matching the
// paper's single level of OpenMP parallelism).
type Pool struct {
	workers int
	wake    []chan struct{} // per-helper wake-up, buffered 1
	done    chan struct{}
	joined  chan struct{} // buffered 1: the last helper block of a region finished
	closed  atomic.Bool

	// mu guards the region's descriptor and claim counters. A helper reads
	// them only under mu, so one that wakes late finds no block left or
	// claims a block of whatever region is current by then.
	mu       sync.Mutex
	body     loopBody
	n        int
	size     int // iterations per block (the last block may be short)
	blocks   int
	next     int  // next unclaimed block
	pending  int  // blocks helpers have claimed and not finished
	waiting  bool // the caller is parked on joined
	partials []float64
}

// NewPool creates a pool with the given number of workers, the calling
// goroutine included. workers <= 0 selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	p := newPool(workers)
	for i := range p.wake {
		go p.helper(i)
	}
	mPoolWorkers.Set(float64(p.workers))
	return p
}

// newPool builds a pool without starting its helpers.
func newPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers:  workers,
		wake:     make([]chan struct{}, workers-1),
		done:     make(chan struct{}),
		joined:   make(chan struct{}, 1),
		partials: make([]float64, workers),
	}
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
	}
	return p
}

// regionStart returns the region's start time when metrics are enabled, or
// the zero Time when disabled (one atomic load on the hot path).
func regionStart() time.Time {
	if metrics.Enabled() {
		return time.Now()
	}
	return time.Time{}
}

// regionEnd records one region of n iterations, run inline or forked. A
// zero start (metrics disabled at regionStart) records nothing.
func regionEnd(start time.Time, n int, inline bool) {
	if start.IsZero() {
		return
	}
	mRegionSeconds.Observe(time.Since(start).Seconds())
	mRegions.Inc()
	mRegionItems.Add(int64(n))
	if inline {
		mRegionsInline.Inc()
	}
}

// helperLabels marks pool helpers role=helper in CPU and goroutine
// profiles (go tool pprof -tagfocus role=helper).
var helperLabels = pprof.WithLabels(context.Background(), pprof.Labels("role", "helper"))

// helper sleeps until woken, then claims and runs blocks until none is
// left. The helper that finishes a region's last outstanding block wakes
// the caller if it is parked in join.
func (p *Pool) helper(id int) {
	pprof.SetGoroutineLabels(helperLabels)
	for {
		select {
		case <-p.wake[id]:
		case <-p.done:
			return
		}
		signal := false
		p.mu.Lock()
		for p.next < p.blocks {
			b := p.next
			p.next++
			p.pending++
			f := p.body
			lo, hi := p.bounds(b)
			p.mu.Unlock()
			v := f.run(lo, hi)
			p.mu.Lock()
			if f.red != nil {
				p.partials[b] = v
			}
			p.pending--
			// The caller parks only after join marked every block claimed,
			// so this ends the loop, and joined's buffer is empty.
			if p.pending == 0 && p.waiting {
				p.waiting, signal = false, true
			}
		}
		p.mu.Unlock()
		if signal {
			p.joined <- struct{}{}
		}
	}
}

// bounds returns block b's iteration range.
func (p *Pool) bounds(b int) (lo, hi int) {
	lo = b * p.size
	return lo, min(lo+p.size, p.n)
}

// loopBody is a region's body; exactly one field is non-nil.
type loopBody struct {
	fn     func(lo, hi int)
	ranger Ranger
	red    func(lo, hi int) float64
}

// run executes iterations [lo, hi) and returns red's partial sum, or 0.
func (f loopBody) run(lo, hi int) float64 {
	switch {
	case f.red != nil:
		return f.red(lo, hi)
	case f.fn != nil:
		f.fn(lo, hi)
	default:
		f.ranger.Range(lo, hi)
	}
	return 0
}

// fork runs f over blocks of size iterations of [0, n): it wakes one
// helper per block after the first, runs blocks itself until none is
// unclaimed, and joins. If a block the caller runs panics, the deferred
// join abandons the unclaimed blocks and waits for the claimed ones before
// the panic propagates, so the pool is ready for the next region.
func (p *Pool) fork(n, size int, f loopBody) {
	p.mu.Lock()
	p.body = f
	p.n, p.size = n, size
	p.blocks = (n + size - 1) / size
	p.next = 1
	p.mu.Unlock()
	for _, c := range p.wake[:min(len(p.wake), p.blocks-1)] {
		select {
		case c <- struct{}{}:
		default:
		}
	}
	defer p.join()
	for b := 0; b >= 0; b = p.claim() {
		v := f.run(p.bounds(b))
		if f.red != nil {
			p.partials[b] = v
		}
	}
}

// claim returns the next unclaimed block for the caller, or −1.
func (p *Pool) claim() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next >= p.blocks {
		return -1
	}
	p.next++
	return p.next - 1
}

// join waits for every block a helper has claimed, then clears the
// descriptor so captured state can be collected and a late helper finds
// nothing to claim.
func (p *Pool) join() {
	p.mu.Lock()
	p.next = p.blocks
	for p.pending > 0 {
		p.waiting = true
		p.mu.Unlock()
		<-p.joined
		p.mu.Lock()
	}
	p.body = loopBody{}
	p.blocks, p.next = 0, 0
	p.mu.Unlock()
}

func (p *Pool) checkOpen(op string) {
	if p.closed.Load() {
		panic("parallel: Pool." + op + " called after Close")
	}
}

// Workers returns the pool size, the submitting goroutine included.
func (p *Pool) Workers() int { return p.workers }

// Close stops the helpers. For must not be called after Close (it panics
// rather than running on a stopped team). Close is idempotent.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.done)
	}
}

// wakeNs is what waking a parked helper costs a region, in nanoseconds:
// on the two-vCPU benchmark host a woken helper starts its first block
// about 70 µs after the caller's wake (EXPERIMENTS.md "Caller-participating
// fork/join"). The caller finishes a block shorter than that before the
// helper could start it, so such a region runs faster, and leaves the
// other vCPU to the loader, when the caller runs it alone.
const wakeNs = 70e3

// Costed submits regions to a pool with an estimate of their serial run
// time, which decides whether a region forks or runs on the caller. A
// Costed of a nil pool runs every region as one block on the caller, like
// a pool of one, and records nothing.
type Costed struct {
	p  *Pool
	ns float64
}

// Cost returns a handle that submits regions estimated to take ns
// nanoseconds on one worker. A region whose blocks average less than the
// wake cost runs inline: the caller runs the blocks it would have forked,
// in index order, and wakes no helper. p may be nil.
func (p *Pool) Cost(ns float64) Costed { return Costed{p, ns} }

// Workers returns the size of the pool regions are submitted to, or 1 for
// a nil pool.
func (c Costed) Workers() int {
	if c.p == nil {
		return 1
	}
	return c.p.workers
}

// For is Pool.For at the handle's cost.
func (c Costed) For(n int, s Schedule, chunk int, body func(lo, hi int)) {
	c.submit("For", n, s, chunk, loopBody{fn: body})
}

// ForRanger is Pool.ForRanger at the handle's cost.
func (c Costed) ForRanger(n int, s Schedule, chunk int, body Ranger) {
	c.submit("ForRanger", n, s, chunk, loopBody{ranger: body})
}

// ReduceSum is Pool.ReduceSum at the handle's cost.
func (c Costed) ReduceSum(n int, body func(lo, hi int) float64) float64 {
	return c.submit("ReduceSum", n, Static, 0, loopBody{red: body})
}

// submit runs one region of n iterations and returns the sum of its
// blocks' partials in block order (0 unless f is a reduction). A pool of
// one runs the whole range as one block, as a nil pool does; a larger pool
// runs the blocks of its schedule, inline when there is only one block or
// the cost estimate is below the wake cost per block, forked otherwise.
func (c Costed) submit(op string, n int, s Schedule, chunk int, f loopBody) float64 {
	p := c.p
	if p == nil {
		if n <= 0 {
			return 0
		}
		return f.run(0, n)
	}
	p.checkOpen(op)
	if n <= 0 {
		return 0
	}
	start := regionStart()
	if p.workers == 1 {
		v := f.run(0, n)
		regionEnd(start, n, true)
		return v
	}
	size := p.blockSize(n, s, chunk)
	blocks := (n + size - 1) / size
	if blocks == 1 || c.ns < wakeNs*float64(blocks) {
		total := 0.0
		for lo := 0; lo < n; lo += size {
			total += f.run(lo, min(lo+size, n))
		}
		regionEnd(start, n, true)
		return total
	}
	p.fork(n, size, f)
	total := 0.0
	if f.red != nil {
		for _, v := range p.partials[:blocks] {
			total += v
		}
	}
	regionEnd(start, n, false)
	return total
}

// For executes body(lo, hi) over a partition of [0, n) using the given
// schedule and returns when every iteration has completed (fork/join).
// chunk is the dynamic chunk size; it is ignored for Static and defaults to
// ceil(n/(8*workers)) when <= 0. A region submitted through For carries no
// cost estimate, so it forks whenever it has more than one block.
func (p *Pool) For(n int, s Schedule, chunk int, body func(lo, hi int)) {
	p.Cost(math.Inf(1)).For(n, s, chunk, body)
}

// ForRanger is For with an interface body instead of a func. Passing a
// pointer-typed Ranger avoids the closure allocation of For, which keeps
// hot kernels (the packed GEMM) allocation-free.
func (p *Pool) ForRanger(n int, s Schedule, chunk int, body Ranger) {
	p.Cost(math.Inf(1)).ForRanger(n, s, chunk, body)
}

// blockSize returns the iterations per block: ceil(n/workers) for Static
// (one block per worker), the chunk for Dynamic.
func (p *Pool) blockSize(n int, s Schedule, chunk int) int {
	switch s {
	case Static:
		return (n + p.workers - 1) / p.workers
	case Dynamic:
		if chunk <= 0 {
			chunk = max(1, (n+8*p.workers-1)/(8*p.workers))
		}
		return chunk
	default:
		panic(fmt.Sprintf("parallel: unknown schedule %d", int(s)))
	}
}

// ReduceSum evaluates body over a static partition of [0, n), where body
// returns a partial sum for its block, and returns the total. Partials are
// combined in block order so the result is deterministic for a fixed n and
// worker count.
func (p *Pool) ReduceSum(n int, body func(lo, hi int) float64) float64 {
	return p.Cost(math.Inf(1)).ReduceSum(n, body)
}
