package device

import (
	"errors"
	"strings"
	"testing"

	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func TestSliceViewReadyAtDelegatesToParent(t *testing.T) {
	// Regression: ReadyAt on a view returned the view's zero readyAt
	// instead of delegating to the parent like the internal ready() does.
	d := newNumericPhi()
	b := d.MustAlloc(10, 4)
	end := d.CopyIn(b, tensor.NewMatrix(10, 4), 0)
	v := b.Slice(2, 5)
	if v.ReadyAt() != end {
		t.Fatalf("view ReadyAt %g, parent ready at %g", v.ReadyAt(), end)
	}
	if v.ReadyAt() != b.ReadyAt() {
		t.Fatal("view and parent ReadyAt disagree")
	}
}

func TestCopyOutOfViewChargesViewBytes(t *testing.T) {
	// Regression: a view's bytes field was never set, so copying a view
	// out charged a zero-byte (zero-cost) transfer.
	d := newNumericPhi()
	b := d.MustAlloc(10, 4)
	d.CopyIn(b, tensor.NewMatrix(10, 4), 0)
	moved := d.Stats().BytesMoved
	v := b.Slice(2, 5)
	if v.Bytes() != 3*4*8 {
		t.Fatalf("view bytes %d, want %d", v.Bytes(), 3*4*8)
	}
	before := d.TransferBusyUntil()
	out := tensor.NewMatrix(3, 4)
	d.CopyOut(v, out)
	if d.TransferBusyUntil() <= before {
		t.Fatal("view copy-out charged no transfer time")
	}
	if got := d.Stats().BytesMoved - moved; got != 3*4*8 {
		t.Fatalf("view copy-out moved %d B, want %d", got, 3*4*8)
	}
}

func TestCopyOutShapeMismatchPanics(t *testing.T) {
	// Regression: CopyOut (unlike CopyIn) skipped the host shape check,
	// which a view copy-out silently exploited.
	d := newNumericPhi()
	b := d.MustAlloc(10, 4)
	v := b.Slice(0, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.CopyOut(v, tensor.NewMatrix(10, 4))
}

func TestFaultConfigValidationAndDefaults(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	for _, bad := range []FaultConfig{
		{Rate: -0.1}, {Rate: 1}, {Rate: 0.5, PermanentFrac: 2},
		{Rate: 0.5, MaxRetries: -1}, {Rate: 0.5, BackoffBase: -1},
	} {
		if err := d.EnableFaults(bad); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
	cfg, err := FaultConfig{Rate: 0.5}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxRetries != 4 || cfg.BackoffBase != 1e-3 || cfg.BackoffCap != 100e-3 {
		t.Fatalf("defaults %+v", cfg)
	}
	// Capped exponential: 1, 2, 4 ms ... never past the cap.
	if cfg.backoff(0) != 1e-3 || cfg.backoff(1) != 2e-3 {
		t.Fatal("backoff not exponential")
	}
	if cfg.backoff(50) != 100e-3 || cfg.backoff(10000) != 100e-3 {
		t.Fatal("backoff not capped")
	}
}

func TestTransientFaultsRetryAndChargeSimTime(t *testing.T) {
	clean := New(sim.XeonPhi5110P(), true, nil)
	faulty := New(sim.XeonPhi5110P(), true, nil)
	if err := faulty.EnableFaults(FaultConfig{Rate: 0.5, Seed: 7, MaxRetries: 100}); err != nil {
		t.Fatal(err)
	}
	host := tensor.NewMatrix(64, 64)
	for i := range host.Data {
		host.Data[i] = float64(i)
	}
	var cleanEnd, faultyEnd float64
	for i := 0; i < 20; i++ {
		cb, fb := clean.MustAlloc(64, 64), faulty.MustAlloc(64, 64)
		cleanEnd = clean.CopyIn(cb, host, 0)
		faultyEnd = faulty.CopyIn(fb, host, 0)
		if !tensor.Equal(fb.Mat, host, 0) {
			t.Fatal("faulty transfer corrupted data")
		}
		out := tensor.NewMatrix(64, 64)
		faulty.CopyOut(fb, out)
		if !tensor.Equal(out, host, 0) {
			t.Fatal("faulty copy-out corrupted data")
		}
	}
	st := faulty.Stats()
	if st.FaultsTransient == 0 || st.Retries == 0 {
		t.Fatalf("no faults injected at rate 0.5: %+v", st)
	}
	if st.FaultsPermanent != 0 || st.FailedTransfers != 0 {
		t.Fatalf("unexpected permanent/failed: %+v", st)
	}
	if st.BackoffSeconds <= 0 {
		t.Fatal("no backoff charged")
	}
	if faultyEnd <= cleanEnd {
		t.Fatalf("faulty run not slower: %g vs %g", faultyEnd, cleanEnd)
	}
	// Deterministic: the same seed reproduces the same fault pattern.
	replay := New(sim.XeonPhi5110P(), true, nil)
	if err := replay.EnableFaults(FaultConfig{Rate: 0.5, Seed: 7, MaxRetries: 100}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rb := replay.MustAlloc(64, 64)
		replay.CopyIn(rb, host, 0)
		out := tensor.NewMatrix(64, 64)
		replay.CopyOut(rb, out)
	}
	rst := replay.Stats()
	if rst.FaultsTransient != st.FaultsTransient || rst.Retries != st.Retries ||
		rst.BackoffSeconds != st.BackoffSeconds || replay.Now() != faulty.Now() {
		t.Fatalf("fault pattern not deterministic: %+v vs %+v", rst, st)
	}
}

func TestRetryExhaustionReturnsTransferError(t *testing.T) {
	d := New(sim.XeonPhi5110P(), true, nil)
	// Rate just under 1: every attempt faults, transiently.
	if err := d.EnableFaults(FaultConfig{Rate: 0.999999, MaxRetries: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	b := d.MustAlloc(4, 4)
	host := tensor.NewMatrix(4, 4)
	host.Data[0] = 42
	_, err := d.TryCopyIn(b, host, 0)
	var te *TransferError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransferError", err)
	}
	if te.Permanent || te.Attempts != 4 { // 1 first try + 3 retries
		t.Fatalf("error %+v", te)
	}
	if b.Mat.Data[0] != 0 {
		t.Fatal("failed copy-in overwrote the buffer")
	}
	if b.ReadyAt() != 0 {
		t.Fatal("failed copy-in moved the ready time")
	}
	st := d.Stats()
	if st.FailedTransfers != 1 || st.Retries != 3 {
		t.Fatalf("stats %+v", st)
	}
	// The wrapper panics where Try returns an error.
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "failed after") {
			t.Fatalf("CopyIn recover = %v", r)
		}
	}()
	d.CopyIn(b, host, 0)
}

func TestPermanentFault(t *testing.T) {
	d := New(sim.XeonPhi5110P(), true, nil)
	if err := d.EnableFaults(FaultConfig{Rate: 0.999999, PermanentFrac: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	b := d.MustAlloc(4, 4)
	host := tensor.NewMatrix(4, 4)
	_, err := d.TryCopyIn(b, host, 0)
	var te *TransferError
	if !errors.As(err, &te) || !te.Permanent || te.Attempts != 1 {
		t.Fatalf("err = %v", err)
	}
	st := d.Stats()
	if st.FaultsPermanent != 1 || st.Retries != 0 || st.FailedTransfers != 1 {
		t.Fatalf("stats %+v", st)
	}
}
