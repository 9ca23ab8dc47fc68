package feed

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestLoaderFIFO: jobs run one at a time in submission order, and each Wait
// returns the oldest unwaited job's own error.
func TestLoaderFIFO(t *testing.T) {
	l := NewLoader(3)
	defer l.Close()
	var order []int // written by the loader only; read after the Waits
	errOdd := errors.New("odd")
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			k := round*3 + i
			l.Submit(func() error {
				order = append(order, k)
				if k%2 == 1 {
					return errOdd
				}
				return nil
			})
		}
		for i := 0; i < 3; i++ {
			k := round*3 + i
			if err := l.Wait(); (k%2 == 1) != errors.Is(err, errOdd) {
				t.Fatalf("job %d: Wait returned %v", k, err)
			}
		}
	}
	for i, k := range order {
		if i != k {
			t.Fatalf("run order %v", order)
		}
	}
	if len(order) != 12 {
		t.Fatalf("%d jobs ran, want 12", len(order))
	}
}

// TestLoaderPanicIsError: a panicking job comes back from Wait as an error
// naming the panic, and the loader keeps running later jobs.
func TestLoaderPanicIsError(t *testing.T) {
	l := NewLoader(1)
	defer l.Close()
	l.Submit(func() error { panic("backing store gone") })
	if err := l.Wait(); err == nil || !strings.Contains(err.Error(), "backing store gone") {
		t.Fatalf("panic surfaced as %v", err)
	}
	l.Submit(func() error { return nil })
	if err := l.Wait(); err != nil {
		t.Fatalf("job after a panic: %v", err)
	}
}

// TestLoaderCloseJoins: Close with depth jobs queued and none waited for
// runs every one of them, returns only once the loader goroutine is gone,
// and leaves no goroutine behind.
func TestLoaderCloseJoins(t *testing.T) {
	before := runtime.NumGoroutine()
	l := NewLoader(4)
	gate := make(chan struct{})
	ran := 0
	for i := 0; i < 4; i++ {
		l.Submit(func() error {
			<-gate
			ran++
			return nil
		})
	}
	closed := make(chan struct{})
	go func() {
		l.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still blocked")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-closed
	if ran != 4 {
		t.Fatalf("%d of 4 queued jobs ran before Close returned", ran)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("%d goroutines before the loader, %d after Close", before, after)
	}
}

// settledGoroutines polls until the goroutine count is back at or below
// want (exiting goroutines take a moment to be reaped) and returns the last
// count seen.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
