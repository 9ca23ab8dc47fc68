// Package device implements phideep's offload runtime: a simulated
// coprocessor (or host CPU) that owns device memory, executes kernels on a
// compute engine, and moves data over a PCIe transfer engine.
//
// A Device runs in one of two modes. In Numeric mode every kernel really
// executes (via internal/kernels) *and* charges simulated time, so results
// are bit-real and timing is modeled — this is what tests, examples and
// small benchmarks use. In model-only mode kernels charge time without
// touching the floats, which makes the paper's large sweeps (up to
// 4096×16384 networks over a million examples) feasible on any host. Both
// modes share exactly one costing path, so reported times are identical.
//
// The compute engine and the transfer engine are independent timelines:
// a transfer for the next data chunk can proceed while the cores train on
// the current one, which is precisely the loading-thread double-buffering
// scheme of the paper's Fig. 5.
//
// When metrics collection is enabled (internal/metrics), the device
// additionally records the *real* host seconds spent in numeric kernels
// and host-side copies (device.wall.*) next to the simulated charges
// (device.sim.*), so a run report shows both clocks side by side. The
// relationship between them is documented in DESIGN.md's "Observability"
// section.
package device

import (
	"fmt"
	"time"

	"phideep/internal/metrics"
	"phideep/internal/parallel"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// Device is one simulated execution platform.
type Device struct {
	Arch *sim.Arch

	// Numeric selects whether kernels actually compute (true) or only
	// charge simulated time (false).
	Numeric bool

	// Pool executes parallel kernels when Numeric. May be nil, in which
	// case parallel levels run on the calling goroutine (still correct,
	// just not concurrent).
	Pool *parallel.Pool

	// Observe, when non-nil, is called once per sequential kernel launch
	// with the op exactly as submitted to Exec. Used by internal/tune's
	// calibrated predictor to capture workload traces.
	Observe func(op sim.Op)
	// ObserveGroup, when non-nil, is called once per concurrent group
	// (ExecConcurrent) with the branch ops at their pre-split core request
	// and Fused set on all but the first branch — the exact inputs to the
	// core-sharing split, so an observer can replay the split and the
	// group-makespan rule deterministically. When nil, Observe (if set)
	// receives the branches individually instead. The slice is the
	// device's scratch, valid only during the call; copy it to keep it.
	ObserveGroup func(ops []sim.Op)
	// ObserveTransfer, when non-nil, is called once per logical PCIe
	// transfer with its byte count (retry attempts under the fault model
	// are not re-reported).
	ObserveTransfer func(bytes int64)

	compute  sim.Timeline
	transfer sim.Timeline

	allocated int64
	peakAlloc int64

	// Stats.
	ops       int
	transfers int
	flops     float64
	moved     int64

	// trace records per-activity events when enabled via EnableTrace.
	trace *traceBuffer

	// faults is the injectable PCIe fault model (nil = transfers never
	// fail); see EnableFaults.
	faults *faultState

	// group is ExecConcurrent's per-branch scratch.
	group groupScratch
}

// groupScratch is ExecConcurrent's per-branch working storage, owned by
// the Device and reused by every group, so a warm group allocates
// nothing. Neither Timeline.ScheduleGroup nor an ObserveGroup observer
// keeps a reference past the call.
type groupScratch struct {
	ready, durs, full []float64
	obs               []sim.Op
}

// reset sizes the scratch for k branches with ready zeroed; durs and full
// are overwritten by every group.
func (g *groupScratch) reset(k int) {
	if cap(g.ready) < k {
		g.ready, g.durs, g.full = make([]float64, k), make([]float64, k), make([]float64, k)
	}
	g.ready, g.durs, g.full = g.ready[:k], g.durs[:k], g.full[:k]
	clear(g.ready)
}

// New creates a device for the given architecture. numeric selects numeric
// or model-only execution; pool may be nil.
func New(arch *sim.Arch, numeric bool, pool *parallel.Pool) *Device {
	return &Device{
		Arch:     arch,
		Numeric:  numeric,
		Pool:     pool,
		compute:  sim.Timeline{Name: "compute"},
		transfer: sim.Timeline{Name: "transfer"},
	}
}

// Buffer is a device-resident matrix. In model-only mode Mat is nil and
// only the shape and timing metadata are tracked.
type Buffer struct {
	Rows, Cols int
	Mat        *tensor.Matrix // nil unless the device is numeric

	dev     *Device
	bytes   int64
	readyAt float64 // simulated time at which the contents are valid
	freed   bool
	parent  *Buffer // non-nil for row-slice views
}

// Slice returns rows [i, j) of b as a view sharing b's storage and ready
// time. Views are not separately allocated or freed; they are meant as
// read-only kernel inputs (the minibatch windows into a data chunk of
// Algorithm 1). Writing through a view does not update the parent's ready
// time. A view carries the byte span of its own rows, so transferring one
// out charges the view's size, not the parent's (and never zero).
func (b *Buffer) Slice(i, j int) *Buffer {
	if b.parent != nil {
		panic("device: Slice of a slice")
	}
	if i < 0 || j < i || j > b.Rows {
		panic(fmt.Sprintf("device: Slice [%d, %d) out of %d rows", i, j, b.Rows))
	}
	v := &Buffer{Rows: j - i, Cols: b.Cols, dev: b.dev, parent: b,
		bytes: int64(j-i) * int64(b.Cols) * 8}
	if b.Mat != nil {
		v.Mat = b.Mat.RowsView(i, j)
	}
	return v
}

// Head returns the first n rows of b: b itself when n == b.Rows, the view
// b.Slice(0, n) otherwise, so a partial batch reuses a full-batch
// workspace.
func (b *Buffer) Head(n int) *Buffer {
	if n == b.Rows {
		return b
	}
	return b.Slice(0, n)
}

// isFreed reports whether the buffer (or, for views, its parent) has been
// freed.
func (b *Buffer) isFreed() bool {
	if b.parent != nil {
		return b.parent.freed
	}
	return b.freed
}

// ready returns the buffer's effective ready time (the parent's for views).
func (b *Buffer) ready() float64 {
	if b.parent != nil {
		return b.parent.readyAt
	}
	return b.readyAt
}

// Bytes returns the byte span of the buffer's rows: the device memory
// footprint for allocated buffers, the view's share of the parent for
// slice views.
func (b *Buffer) Bytes() int64 { return b.bytes }

// ReadyAt returns the simulated time at which the buffer's current contents
// became (or become) valid. For slice views this is the parent's ready
// time — a view is valid exactly when the storage it aliases is.
func (b *Buffer) ReadyAt() float64 { return b.ready() }

// Alloc reserves an r×c float64 buffer in device global memory. It fails
// when the device's memory capacity (8 GB on the 5110P) would be exceeded —
// the constraint that forces the paper's chunked streaming design.
func (d *Device) Alloc(r, c int) (*Buffer, error) {
	bytes := int64(r) * int64(c) * 8
	if d.allocated+bytes > d.Arch.GlobalMemBytes {
		return nil, fmt.Errorf("device: out of global memory on %s: %d B allocated, %d B requested, %d B capacity",
			d.Arch.Name, d.allocated, bytes, d.Arch.GlobalMemBytes)
	}
	d.allocated += bytes
	if d.allocated > d.peakAlloc {
		d.peakAlloc = d.allocated
	}
	b := &Buffer{Rows: r, Cols: c, dev: d, bytes: bytes}
	if d.Numeric {
		b.Mat = tensor.NewMatrix(r, c)
	}
	return b, nil
}

// MustAlloc is Alloc that panics on out-of-memory; for tests and examples
// with known-small footprints.
func (d *Device) MustAlloc(r, c int) *Buffer {
	b, err := d.Alloc(r, c)
	if err != nil {
		panic(err)
	}
	return b
}

// Free releases the buffer's device memory. Double frees panic.
func (d *Device) Free(b *Buffer) {
	if b.parent != nil {
		panic("device: Free of a slice view")
	}
	if b.freed {
		panic("device: double free")
	}
	b.freed = true
	d.allocated -= b.bytes
	b.Mat = nil
}

// Owner allocates a group of buffers on Dev and frees them together — a
// model's persistent parameter, gradient and workspace memory. Its error
// is sticky: after the first failed Alloc every later Alloc returns nil
// and Err reports that first failure, so a constructor allocates
// everything, checks Err once, and calls Free to release whatever the
// failure left behind.
type Owner struct {
	Dev  *Device
	bufs []*Buffer
	err  error
}

// Alloc reserves an r×c buffer owned by o, or returns nil once any Alloc
// of o has failed.
func (o *Owner) Alloc(r, c int) *Buffer {
	if o.err != nil {
		return nil
	}
	b, err := o.Dev.Alloc(r, c)
	if err != nil {
		o.err = err
		return nil
	}
	o.bufs = append(o.bufs, b)
	return b
}

// Err returns the first allocation failure, or nil.
func (o *Owner) Err() error { return o.err }

// Free releases every buffer o allocated. A second Free does nothing.
func (o *Owner) Free() {
	for _, b := range o.bufs {
		o.Dev.Free(b)
	}
	o.bufs = nil
}

// scheduleTransfer books one logical transfer of the given byte count on
// the transfer engine, running it through the fault model when armed: a
// transient fault re-attempts the transfer after a capped exponential
// backoff stalled onto the engine (so flaky-link time shows up in the
// simulated makespan); a permanent fault or retry exhaustion abandons the
// transfer and returns a *TransferError. Every attempt — failed ones
// included — occupies the engine for the full transfer duration.
func (d *Device) scheduleTransfer(op string, bytes int64, earliest float64) (end float64, err error) {
	if d.ObserveTransfer != nil {
		d.ObserveTransfer(bytes)
	}
	dur := d.Arch.TransferTime(bytes)
	f := d.faults
	for attempt := 1; ; attempt++ {
		start, attemptEnd := d.transfer.Schedule(earliest, dur)
		end = attemptEnd
		if metrics.Enabled() {
			mSimTransfer.Add(dur)
		}
		fault, permanent := f.draw()
		if d.trace != nil {
			name := fmt.Sprintf("%s %d B", op, bytes)
			if fault {
				name += " (fault)"
			}
			d.trace.add(TraceEvent{Name: name, Engine: "transfer", Start: start, End: end})
		}
		if !fault {
			return end, nil
		}
		if metrics.Enabled() {
			mFaults.Inc()
		}
		if permanent {
			f.permanent++
			f.failed++
			if metrics.Enabled() {
				mFailedTransfers.Inc()
			}
			return end, &TransferError{Op: op, Bytes: bytes, Attempts: attempt, Permanent: true}
		}
		f.transient++
		if attempt > f.config().MaxRetries {
			f.failed++
			if metrics.Enabled() {
				mFailedTransfers.Inc()
			}
			return end, &TransferError{Op: op, Bytes: bytes, Attempts: attempt}
		}
		backoff := f.config().backoff(attempt - 1)
		d.transfer.Stall(backoff)
		f.retries++
		if metrics.Enabled() {
			mRetries.Inc()
			mSimBackoff.Add(backoff)
		}
		earliest = 0 // the stall already pushed the engine's free time out
	}
}

// CopyIn schedules a host→device transfer of host into b on the transfer
// engine, no earlier than simulated time earliest (0 for "as soon as the
// link is free" — the prefetching loading thread of Fig. 5). host may be
// nil in model-only mode. It returns the transfer's completion time, which
// also becomes the buffer's ready time. When the fault model abandons the
// transfer CopyIn panics; callers that degrade gracefully use TryCopyIn.
func (d *Device) CopyIn(b *Buffer, host *tensor.Matrix, earliest float64) float64 {
	end, err := d.TryCopyIn(b, host, earliest)
	if err != nil {
		panic(err.Error())
	}
	return end
}

// TryCopyIn is CopyIn that reports an abandoned transfer as a
// *TransferError instead of panicking. On failure the buffer keeps its
// previous contents and ready time — the simulated time of the failed
// attempts and backoffs has still been charged to the transfer engine.
func (d *Device) TryCopyIn(b *Buffer, host *tensor.Matrix, earliest float64) (float64, error) {
	if b.isFreed() {
		panic("device: CopyIn into freed buffer")
	}
	if b.parent != nil {
		panic("device: CopyIn into a slice view; transfer into the parent buffer")
	}
	if d.Numeric {
		if host == nil {
			panic("device: CopyIn with nil host matrix on a numeric device")
		}
		if host.Rows != b.Rows || host.Cols != b.Cols {
			panic(fmt.Sprintf("device: CopyIn shape mismatch: host %dx%d, buffer %dx%d", host.Rows, host.Cols, b.Rows, b.Cols))
		}
	}
	d.transfers++
	end, err := d.scheduleTransfer("copy-in", b.bytes, earliest)
	if err != nil {
		return end, err
	}
	if d.Numeric {
		if metrics.Enabled() {
			t0 := time.Now()
			b.Mat.CopyFrom(host)
			mWallTransfer.Add(time.Since(t0).Seconds())
		} else {
			b.Mat.CopyFrom(host)
		}
	}
	b.readyAt = end
	d.moved += b.bytes
	if metrics.Enabled() {
		mTransfers.Inc()
		mBytesMoved.Add(b.bytes)
	}
	return end, nil
}

// CopyOut schedules a device→host transfer of b into host (shapes must
// match; host may be nil in model-only mode) and returns its completion
// time. The transfer starts only after both the buffer's contents are ready
// and the compute engine has issued everything that produces them. Slice
// views copy out their own rows, charging the view's byte span. When the
// fault model abandons the transfer CopyOut panics.
func (d *Device) CopyOut(b *Buffer, host *tensor.Matrix) float64 {
	if b.isFreed() {
		panic("device: CopyOut of freed buffer")
	}
	if d.Numeric {
		if host == nil {
			panic("device: CopyOut with nil host matrix on a numeric device")
		}
		if host.Rows != b.Rows || host.Cols != b.Cols {
			panic(fmt.Sprintf("device: CopyOut shape mismatch: host %dx%d, buffer %dx%d", host.Rows, host.Cols, b.Rows, b.Cols))
		}
	}
	ready := b.ready()
	if cb := d.compute.BusyUntil(); cb > ready {
		ready = cb
	}
	d.transfers++
	end, err := d.scheduleTransfer("copy-out", b.bytes, ready)
	if err != nil {
		panic(err.Error())
	}
	if d.Numeric {
		if metrics.Enabled() {
			t0 := time.Now()
			host.CopyFrom(b.Mat)
			mWallTransfer.Add(time.Since(t0).Seconds())
		} else {
			host.CopyFrom(b.Mat)
		}
	}
	d.moved += b.bytes
	if metrics.Enabled() {
		mTransfers.Inc()
		mBytesMoved.Add(b.bytes)
	}
	return end
}

// Exec schedules the kernel described by op on the compute engine, waiting
// for every dependency buffer to be ready, and runs fn when the device is
// numeric. Buffers written by the kernel get the kernel's end time as their
// new ready time (pass them in deps too if the kernel also reads them).
func (d *Device) Exec(op sim.Op, deps []*Buffer, writes []*Buffer, fn func()) {
	ready := 0.0
	for _, b := range deps {
		if b == nil {
			continue
		}
		if b.isFreed() {
			panic("device: Exec depends on freed buffer")
		}
		if r := b.ready(); r > ready {
			ready = r
		}
	}
	if d.Observe != nil {
		d.Observe(op)
	}
	dur := d.Arch.OpTime(op)
	start, end := d.compute.Schedule(ready, dur)
	for _, b := range writes {
		if b == nil {
			continue
		}
		b.readyAt = end
	}
	d.ops++
	d.flops += op.Flops()
	if metrics.Enabled() {
		mLaunches.Inc()
		mSimCompute.Add(dur)
	}
	if d.trace != nil {
		d.trace.add(TraceEvent{Name: opName(op), Engine: "compute", Start: start, End: end})
	}
	if d.Numeric && fn != nil {
		if metrics.Enabled() {
			t0 := time.Now()
			fn()
			mWallCompute.Add(time.Since(t0).Seconds())
		} else {
			fn()
		}
	}
}

// Branch is one arm of a concurrent kernel group (a node set of the
// paper's Fig. 6 dependency graph whose members have no edges between
// them).
type Branch struct {
	Op     sim.Op
	Deps   []*Buffer
	Writes []*Buffer
	Fn     func()
}

// ExecConcurrent schedules the branches to run at the same time on the
// compute engine, splitting the physical cores evenly between them, and
// charges the fork/join synchronization once for the whole group. This
// models the paper's Fig. 6 optimization: independent matrix operations of
// the RBM gradient (e.g. Vb, Vc and Vw after H2) execute concurrently, so
// their launch overheads overlap. On a numeric device the branch functions
// run sequentially in issue order — they are independent by contract, so
// results are identical; only the simulated timing reflects concurrency.
func (d *Device) ExecConcurrent(branches []Branch) {
	if len(branches) == 0 {
		return
	}
	if len(branches) == 1 {
		b := branches[0]
		d.Exec(b.Op, b.Deps, b.Writes, b.Fn)
		return
	}
	k := len(branches)
	if d.ObserveGroup != nil || d.Observe != nil {
		obs := d.group.obs[:0]
		for i := range branches {
			op := branches[i].Op
			op.Fused = i > 0
			obs = append(obs, op)
		}
		d.group.obs = obs
		if d.ObserveGroup != nil {
			d.ObserveGroup(obs)
		} else {
			for _, op := range obs {
				d.Observe(op)
			}
		}
	}
	d.group.reset(k)
	ready, durs, full := d.group.ready, d.group.durs, d.group.full
	// First pass: full-device durations, used to split the cores between
	// the branches in proportion to their work (a big GEMM paired with a
	// tiny reduction should keep nearly all the cores).
	totalFull := 0.0
	for i := range branches {
		op := branches[i].Op
		op.Fused = true // overhead handled below
		full[i] = d.Arch.OpTime(op)
		totalFull += full[i]
	}
	for i := range branches {
		b := &branches[i]
		for _, dep := range b.Deps {
			if dep == nil {
				continue
			}
			if dep.isFreed() {
				panic("device: ExecConcurrent depends on freed buffer")
			}
			if r := dep.ready(); r > ready[i] {
				ready[i] = r
			}
		}
		op := b.Op
		cores := op.Cores
		if cores <= 0 {
			if op.Level.IsParallel() {
				cores = d.Arch.Cores
			} else {
				cores = 1
			}
		}
		if op.Level.IsParallel() && totalFull > 0 && k > 1 {
			share := int(float64(cores) * full[i] / totalFull)
			if share < 1 {
				share = 1
			}
			if share > cores {
				share = cores
			}
			op.Cores = share
		}
		// One fork/join for the whole group.
		op.Fused = i > 0
		durs[i] = d.Arch.OpTime(op)
		d.ops++
		d.flops += op.Flops()
		if metrics.Enabled() {
			mLaunches.Inc()
			mSimCompute.Add(durs[i])
		}
	}
	groupStart := d.compute.BusyUntil()
	end := d.compute.ScheduleGroup(ready, durs)
	if d.trace != nil {
		// Each branch spans from its own start to the group's join: the
		// buffers it writes become ready only at the group end, and the
		// trace must not show a kernel finishing before its outputs exist.
		for i := range branches {
			start := groupStart
			if ready[i] > start {
				start = ready[i]
			}
			d.trace.add(TraceEvent{Name: opName(branches[i].Op) + " (concurrent)", Engine: "compute", Start: start, End: end})
		}
	}
	for i := range branches {
		for _, w := range branches[i].Writes {
			if w != nil {
				w.readyAt = end
			}
		}
	}
	if d.Numeric {
		for i := range branches {
			if branches[i].Fn == nil {
				continue
			}
			if metrics.Enabled() {
				t0 := time.Now()
				branches[i].Fn()
				mWallCompute.Add(time.Since(t0).Seconds())
			} else {
				branches[i].Fn()
			}
		}
	}
}

// StallCompute blocks the compute engine for dt seconds of deliberately
// injected idle time — the cluster layer's straggler slowdowns and crashed-
// node downtime, the compute-side analogue of the transfer engine's retry
// backoff. The stall is charged to the simulated clock (the next kernel
// starts no earlier than the end of the stall) and accounted separately in
// Stats.ComputeStallSeconds.
func (d *Device) StallCompute(dt float64) {
	d.compute.Stall(dt)
}

// Now returns the simulated time at which all issued work completes.
func (d *Device) Now() float64 {
	t := d.compute.BusyUntil()
	if tr := d.transfer.BusyUntil(); tr > t {
		t = tr
	}
	return t
}

// ComputeBusyUntil returns the completion time of the compute engine alone.
func (d *Device) ComputeBusyUntil() float64 { return d.compute.BusyUntil() }

// TransferBusyUntil returns the completion time of the transfer engine.
func (d *Device) TransferBusyUntil() float64 { return d.transfer.BusyUntil() }

// Stats summarizes device activity since creation or the last ResetTime.
type Stats struct {
	Ops           int     // kernel launches
	Transfers     int     // PCIe transfers issued (including abandoned ones)
	Flops         float64 // modeled flops executed
	BytesMoved    int64   // PCIe bytes moved by successful transfers
	ComputeBusy   float64 // seconds the compute engine was busy
	TransferBusy  float64 // seconds the transfer engine was busy
	Makespan      float64 // completion time of all work
	PeakAllocated int64   // high-water device memory

	// Fault-model accounting (all zero when EnableFaults was never called).
	FaultsTransient int     // transient transfer faults injected
	FaultsPermanent int     // permanent transfer faults injected
	Retries         int     // transfer re-attempts after transient faults
	FailedTransfers int     // transfers abandoned (permanent or retries out)
	BackoffSeconds  float64 // simulated retry backoff stalled onto the engine

	// Compute-engine stall accounting (non-zero only when a layer above
	// injects compute stalls via StallCompute — straggling cluster nodes,
	// crash downtime).
	ComputeStalls       int     // injected compute stalls
	ComputeStallSeconds float64 // simulated seconds the compute engine was stalled
}

// Stats returns a snapshot of the device's activity counters.
func (d *Device) Stats() Stats {
	s := Stats{
		Ops:            d.ops,
		Transfers:      d.transfers,
		Flops:          d.flops,
		BytesMoved:     d.moved,
		ComputeBusy:    d.compute.BusyTotal(),
		TransferBusy:   d.transfer.BusyTotal(),
		Makespan:       d.Now(),
		PeakAllocated:  d.peakAlloc,
		BackoffSeconds: d.transfer.StallTotal(),

		ComputeStalls:       d.compute.Stalls(),
		ComputeStallSeconds: d.compute.StallTotal(),
	}
	if f := d.faults; f != nil {
		s.FaultsTransient = f.transient
		s.FaultsPermanent = f.permanent
		s.Retries = f.retries
		s.FailedTransfers = f.failed
	}
	return s
}

// ResetTime rewinds both engines and the activity counters to zero while
// keeping allocations; buffers' ready times are stale afterwards, so only
// call this between independent runs that rewrite their inputs. The fault
// stream is *not* rewound — successive runs see fresh faults.
func (d *Device) ResetTime() {
	d.compute.Reset()
	d.transfer.Reset()
	d.ops, d.transfers = 0, 0
	d.flops, d.moved = 0, 0
	if f := d.faults; f != nil {
		f.transient, f.permanent, f.retries, f.failed = 0, 0, 0, 0
	}
}

// Allocated returns the current device memory in use.
func (d *Device) Allocated() int64 { return d.allocated }
