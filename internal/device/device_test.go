package device

import (
	"math"
	"strings"
	"testing"

	"phideep/internal/kernels"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func newNumericPhi() *Device { return New(sim.XeonPhi5110P(), true, nil) }

func TestAllocAccountingAndOOM(t *testing.T) {
	d := newNumericPhi()
	b := d.MustAlloc(100, 100)
	if d.Allocated() != 100*100*8 {
		t.Fatalf("allocated %d", d.Allocated())
	}
	if b.Bytes() != 80000 {
		t.Fatal("buffer bytes")
	}
	d.Free(b)
	if d.Allocated() != 0 {
		t.Fatal("free did not release")
	}
	// 8 GB capacity: a > 1G-element request must fail.
	if _, err := d.Alloc(40000, 40000); err == nil {
		t.Fatal("expected out-of-memory error")
	} else if !strings.Contains(err.Error(), "out of global memory") {
		t.Fatalf("unexpected error %v", err)
	}
	if d.Stats().PeakAllocated != 80000 {
		t.Fatalf("peak %d", d.Stats().PeakAllocated)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	d := newNumericPhi()
	b := d.MustAlloc(1, 1)
	d.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Free(b)
}

func TestOwnerStickyErrorAndFree(t *testing.T) {
	arch := *sim.XeonPhi5110P()
	arch.GlobalMemBytes = 10 * 8
	d := New(&arch, true, nil)
	outside := d.MustAlloc(1, 2) // not the owner's: Free must leave it
	o := Owner{Dev: d}
	if o.Alloc(2, 2) == nil || o.Err() != nil {
		t.Fatal("first allocation failed")
	}
	if o.Alloc(3, 3) != nil || o.Err() == nil {
		t.Fatal("over-capacity allocation succeeded")
	}
	first := o.Err()
	if o.Alloc(1, 1) != nil {
		t.Fatal("allocation after a failure succeeded")
	}
	if o.Err() != first {
		t.Fatalf("error changed from %v to %v", first, o.Err())
	}
	o.Free()
	if d.Allocated() != outside.Bytes() {
		t.Fatalf("after Free %d B allocated, want the %d B outside the owner", d.Allocated(), outside.Bytes())
	}
	o.Free() // a second Free does nothing
	d.Free(outside)
	if d.Allocated() != 0 {
		t.Fatalf("%d B leaked", d.Allocated())
	}
}

func TestHead(t *testing.T) {
	d := newNumericPhi()
	b := d.MustAlloc(4, 2)
	if b.Head(4) != b {
		t.Fatal("full-height Head is not the buffer itself")
	}
	h := b.Head(3)
	if h.Rows != 3 || h.Cols != 2 || h.Bytes() != 3*2*8 {
		t.Fatalf("Head(3) is %dx%d, %d B", h.Rows, h.Cols, h.Bytes())
	}
	h.Mat.Set(2, 1, 7)
	if b.Mat.At(2, 1) != 7 {
		t.Fatal("Head does not share the buffer's storage")
	}
}

func TestCopyInOutNumeric(t *testing.T) {
	d := newNumericPhi()
	b := d.MustAlloc(2, 3)
	host := tensor.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	end := d.CopyIn(b, host, 0)
	if end <= 0 {
		t.Fatal("transfer takes no time")
	}
	if b.ReadyAt() != end {
		t.Fatal("readyAt not set")
	}
	if !tensor.Equal(b.Mat, host, 0) {
		t.Fatal("contents not copied")
	}
	out := tensor.NewMatrix(2, 3)
	d.CopyOut(b, out)
	if !tensor.Equal(out, host, 0) {
		t.Fatal("CopyOut mismatch")
	}
	st := d.Stats()
	if st.Transfers != 2 || st.BytesMoved != 2*2*3*8 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCopyInShapeMismatchPanics(t *testing.T) {
	d := newNumericPhi()
	b := d.MustAlloc(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.CopyIn(b, tensor.NewMatrix(3, 2), 0)
}

func TestExecWaitsForTransfer(t *testing.T) {
	d := newNumericPhi()
	b := d.MustAlloc(100, 100)
	host := tensor.NewMatrix(100, 100)
	end := d.CopyIn(b, host, 0)
	ran := false
	d.Exec(sim.Op{Kind: sim.OpElem, Elems: 100, Level: kernels.Naive}, []*Buffer{b}, []*Buffer{b}, func() { ran = true })
	if !ran {
		t.Fatal("numeric fn not run")
	}
	if d.ComputeBusyUntil() <= end {
		t.Fatal("compute did not wait for the input transfer")
	}
	if b.ReadyAt() != d.ComputeBusyUntil() {
		t.Fatal("write did not refresh readyAt")
	}
}

func TestTransferOverlapsCompute(t *testing.T) {
	// Issue a long kernel, then a transfer with earliest=0: the transfer
	// engine must run during the kernel (Fig. 5), so the makespan is close
	// to the kernel time, not the sum.
	d := New(sim.XeonPhi5110P(), false, nil)
	a := d.MustAlloc(4096, 4096)
	b := d.MustAlloc(4096, 4096)
	d.Exec(sim.Op{Kind: sim.OpGemm, M: 4096, K: 4096, N: 4096, Level: kernels.ParallelBlocked, Vector: true}, []*Buffer{a}, []*Buffer{a}, nil)
	kernelEnd := d.ComputeBusyUntil()
	transferEnd := d.CopyIn(b, nil, 0)
	if transferEnd >= kernelEnd {
		t.Fatalf("transfer (%g) did not overlap kernel (%g)", transferEnd, kernelEnd)
	}
	if d.Now() != kernelEnd {
		t.Fatalf("makespan %g, want %g", d.Now(), kernelEnd)
	}
}

func TestSequentialTransferWhenRequested(t *testing.T) {
	// With earliest = compute frontier, the transfer serializes after it.
	d := New(sim.XeonPhi5110P(), false, nil)
	a := d.MustAlloc(1024, 1024)
	d.Exec(sim.Op{Kind: sim.OpGemm, M: 1024, K: 1024, N: 1024, Level: kernels.ParallelBlocked, Vector: true}, nil, []*Buffer{a}, nil)
	frontier := d.ComputeBusyUntil()
	b := d.MustAlloc(1024, 1024)
	end := d.CopyIn(b, nil, frontier)
	if end <= frontier {
		t.Fatal("synchronous transfer did not wait")
	}
}

func TestSliceViews(t *testing.T) {
	d := newNumericPhi()
	b := d.MustAlloc(10, 4)
	host := tensor.NewMatrix(10, 4)
	for i := 0; i < 10; i++ {
		for j := 0; j < 4; j++ {
			host.Set(i, j, float64(10*i+j))
		}
	}
	d.CopyIn(b, host, 0)
	v := b.Slice(2, 5)
	if v.Rows != 3 || v.Cols != 4 {
		t.Fatal("slice geometry")
	}
	if v.Mat.At(0, 0) != 20 {
		t.Fatal("slice storage wrong")
	}
	if v.ready() != b.ReadyAt() {
		t.Fatal("slice ready time")
	}
	// Slice of slice, free of slice, CopyIn into slice: all must panic.
	for _, f := range []func(){
		func() { v.Slice(0, 1) },
		func() { d.Free(v) },
		func() { d.CopyIn(v, tensor.NewMatrix(3, 4), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
	// Slice out of range.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Slice(5, 11)
}

func TestUseAfterFreePanics(t *testing.T) {
	d := newNumericPhi()
	b := d.MustAlloc(2, 2)
	v := b.Slice(0, 1)
	d.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exec over freed parent")
		}
	}()
	d.Exec(sim.Op{Kind: sim.OpElem, Elems: 2, Level: kernels.Naive}, []*Buffer{v}, nil, nil)
}

func TestExecConcurrentGroupSemantics(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	a := d.MustAlloc(1000, 1000)
	bOut := d.MustAlloc(1000, 1000)
	cOut := d.MustAlloc(1000, 1000)
	mk := func(w *Buffer) Branch {
		return Branch{
			Op:     sim.Op{Kind: sim.OpGemm, M: 1000, K: 1000, N: 1000, Level: kernels.ParallelBlocked, Vector: true},
			Deps:   []*Buffer{a},
			Writes: []*Buffer{w},
		}
	}
	// Serial baseline.
	serial := New(sim.XeonPhi5110P(), false, nil)
	sa := serial.MustAlloc(1000, 1000)
	sb := serial.MustAlloc(1000, 1000)
	sc := serial.MustAlloc(1000, 1000)
	serial.Exec(mk(sb).Op, []*Buffer{sa}, []*Buffer{sb}, nil)
	serial.Exec(mk(sc).Op, []*Buffer{sa}, []*Buffer{sc}, nil)
	serialTime := serial.ComputeBusyUntil()

	d.ExecConcurrent([]Branch{mk(bOut), mk(cOut)})
	groupTime := d.ComputeBusyUntil()
	// Two concurrent GEMMs on half the cores each ≈ the serial time for
	// compute-bound work, but never slower than ~1.3x (sync overlap may
	// make it faster; core-split ramp may make it slightly slower).
	if groupTime > 1.5*serialTime {
		t.Fatalf("concurrent group %g vs serial %g", groupTime, serialTime)
	}
	if bOut.ReadyAt() != groupTime || cOut.ReadyAt() != groupTime {
		t.Fatal("group writes not stamped with group end")
	}
	if d.Stats().Ops != 2 {
		t.Fatalf("group op count %d", d.Stats().Ops)
	}
}

func TestExecConcurrentSingleBranchFallsBack(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	a := d.MustAlloc(10, 10)
	ran := false
	d.ExecConcurrent([]Branch{{
		Op:     sim.Op{Kind: sim.OpElem, Elems: 100, Level: kernels.Naive},
		Writes: []*Buffer{a},
		Fn:     func() { ran = true },
	}})
	if ran {
		t.Fatal("model-only device must not run fn")
	}
	if d.Stats().Ops != 1 {
		t.Fatal("single-branch group op count")
	}
	d.ExecConcurrent(nil) // no-op
}

func TestExecConcurrentNumericRunsAllFns(t *testing.T) {
	d := newNumericPhi()
	a := d.MustAlloc(4, 4)
	count := 0
	branches := []Branch{
		{Op: sim.Op{Kind: sim.OpElem, Elems: 16, Level: kernels.Naive}, Writes: []*Buffer{a}, Fn: func() { count++ }},
		{Op: sim.Op{Kind: sim.OpElem, Elems: 16, Level: kernels.Naive}, Writes: []*Buffer{a}, Fn: func() { count++ }},
		{Op: sim.Op{Kind: sim.OpElem, Elems: 16, Level: kernels.Naive}, Writes: []*Buffer{a}, Fn: func() { count++ }},
	}
	d.ExecConcurrent(branches)
	if count != 3 {
		t.Fatalf("ran %d branch fns", count)
	}
}

func TestModelOnlyModeHasNoMatrices(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	b := d.MustAlloc(5, 5)
	if b.Mat != nil {
		t.Fatal("model-only buffer has storage")
	}
	d.CopyIn(b, nil, 0) // nil host is fine in model-only mode
	ran := false
	d.Exec(sim.Op{Kind: sim.OpElem, Elems: 25, Level: kernels.Naive}, []*Buffer{b}, nil, func() { ran = true })
	if ran {
		t.Fatal("model-only device ran the kernel body")
	}
	if d.Now() <= 0 {
		t.Fatal("no simulated time charged")
	}
}

func TestResetTime(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	b := d.MustAlloc(10, 10)
	d.CopyIn(b, nil, 0)
	d.Exec(sim.Op{Kind: sim.OpElem, Elems: 100, Level: kernels.Naive}, nil, nil, nil)
	if d.Now() == 0 {
		t.Fatal("expected nonzero time")
	}
	d.ResetTime()
	st := d.Stats()
	if d.Now() != 0 || st.Ops != 0 || st.Transfers != 0 || st.Flops != 0 {
		t.Fatalf("ResetTime left %+v", st)
	}
	if d.Allocated() == 0 {
		t.Fatal("ResetTime must keep allocations")
	}
}

func TestStatsFlopsAccumulate(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	d.Exec(sim.Op{Kind: sim.OpGemm, M: 10, K: 10, N: 10, Level: kernels.Naive}, nil, nil, nil)
	if got, want := d.Stats().Flops, 2000.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("flops %g want %g", got, want)
	}
	if d.Stats().ComputeBusy <= 0 || d.Stats().Makespan <= 0 {
		t.Fatal("busy/makespan not tracked")
	}
}
