package parallel

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		pool := NewPool(workers)
		for _, sched := range []Schedule{Static, Dynamic} {
			for _, n := range []int{0, 1, 5, 100, 1001} {
				counts := make([]int32, n)
				pool.For(n, sched, 3, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("workers=%d sched=%v n=%d: index %d visited %d times", workers, sched, n, i, c)
					}
				}
			}
		}
		pool.Close()
	}
}

func TestForQuick(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	f := func(nRaw uint16, dynamic bool, chunkRaw uint8) bool {
		n := int(nRaw) % 500
		sched := Static
		if dynamic {
			sched = Dynamic
		}
		var total int64
		pool.For(n, sched, int(chunkRaw)%20, func(lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
		return total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSumDeterministic(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	body := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += float64(i) * 1e-3
		}
		return s
	}
	first := pool.ReduceSum(10007, body)
	for i := 0; i < 5; i++ {
		if got := pool.ReduceSum(10007, body); got != first {
			t.Fatalf("ReduceSum nondeterministic: %g vs %g", got, first)
		}
	}
	// Against the serial oracle (same block combination order makes this
	// exact for a single-worker pool; allow tiny fp slack vs multi-block).
	serial := body(0, 10007)
	if diff := first - serial; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ReduceSum %g vs serial %g", first, serial)
	}
	if pool.ReduceSum(0, body) != 0 {
		t.Fatal("empty ReduceSum must be 0")
	}
}

func TestRunExecutesAllThunks(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	var mu sync.Mutex
	got := map[int]bool{}
	thunks := make([]func(), 9)
	for i := range thunks {
		i := i
		thunks[i] = func() {
			mu.Lock()
			got[i] = true
			mu.Unlock()
		}
	}
	pool.Run(thunks...)
	if len(got) != 9 {
		t.Fatalf("only %d thunks ran", len(got))
	}
	pool.Run() // no-op
	ran := false
	pool.Run(func() { ran = true })
	if !ran {
		t.Fatal("single thunk did not run")
	}
}

func TestSingleWorkerRunsInline(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	n := 0
	pool.For(10, Static, 0, func(lo, hi int) { n += hi - lo })
	if n != 10 {
		t.Fatal("single-worker For")
	}
}

func TestWorkersAndDefaults(t *testing.T) {
	pool := NewPool(0)
	if pool.Workers() < 1 {
		t.Fatal("default pool empty")
	}
	pool.Close()
	pool.Close() // idempotent
	p3 := NewPool(3)
	defer p3.Close()
	if p3.Workers() != 3 {
		t.Fatal("explicit size ignored")
	}
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatal("schedule names")
	}
	if Schedule(9).String() != "Schedule(9)" {
		t.Fatal("unknown schedule name")
	}
}

func TestUnknownSchedulePanics(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown schedule")
		}
	}()
	pool.For(5, Schedule(9), 0, func(lo, hi int) {})
}

func TestDynamicWithLargeChunk(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var total int64
	pool.For(10, Dynamic, 100, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
	if total != 10 {
		t.Fatal("chunk larger than n mishandled")
	}
}

// rangeCounter is a Ranger that tallies covered indices.
type rangeCounter struct {
	mu   sync.Mutex
	seen map[int]int
}

func (rc *rangeCounter) Range(lo, hi int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for i := lo; i < hi; i++ {
		rc.seen[i]++
	}
}

func TestForRangerCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		pool := NewPool(workers)
		for _, s := range []Schedule{Static, Dynamic} {
			for _, n := range []int{0, 1, 7, 64, 101} {
				rc := &rangeCounter{seen: make(map[int]int)}
				pool.ForRanger(n, s, 3, rc)
				if len(rc.seen) != n {
					t.Fatalf("workers=%d %v n=%d: covered %d indices", workers, s, n, len(rc.seen))
				}
				for i, c := range rc.seen {
					if c != 1 || i < 0 || i >= n {
						t.Fatalf("workers=%d %v n=%d: index %d visited %d times", workers, s, n, i, c)
					}
				}
			}
		}
		pool.Close()
	}
}

// TestPoolUseAfterClosePanics checks the guarded-Close contract: every
// submission API must fail fast with a clear panic instead of hanging on
// the stopped workers.
func TestPoolUseAfterClosePanics(t *testing.T) {
	calls := []struct {
		name string
		call func(p *Pool)
	}{
		{"For", func(p *Pool) { p.For(4, Static, 0, func(lo, hi int) {}) }},
		{"ForRanger", func(p *Pool) { p.ForRanger(4, Static, 0, &rangeCounter{seen: map[int]int{}}) }},
		{"ReduceSum", func(p *Pool) { p.ReduceSum(4, func(lo, hi int) float64 { return 0 }) }},
		{"Run", func(p *Pool) { p.Run(func() {}, func() {}) }},
	}
	for _, tc := range calls {
		pool := NewPool(2)
		pool.Close()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s after Close did not panic", tc.name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "after Close") || !strings.Contains(msg, tc.name) {
					t.Fatalf("%s after Close: unexpected panic %v", tc.name, r)
				}
			}()
			tc.call(pool)
		}()
	}
}

// TestCloseStopsWorkers is the leak check for Close: after a pool that ran
// regions is closed, the goroutine count returns to its value before
// NewPool. Close does not join the workers, so the check polls.
func TestCloseStopsWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		before := runtime.NumGoroutine()
		pool := NewPool(workers)
		pool.For(100, Dynamic, 7, func(lo, hi int) {})
		pool.Run(func() {}, func() {})
		pool.Close()
		deadline := time.Now().Add(5 * time.Second)
		n := runtime.NumGoroutine()
		for n > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Fatalf("%d workers: %d goroutines after Close, %d before NewPool", workers, n, before)
		}
	}
}

// TestForkJoinDoesNotAllocate checks the allocation-free fork/join claim:
// steady-state ForRanger and ReduceSum submissions allocate nothing (the
// loop descriptor lives in the pool, workers are woken via preallocated
// channels, and the join barrier is reused).
func TestForkJoinDoesNotAllocate(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	rc := &rangeCounter{seen: make(map[int]int)}
	red := func(lo, hi int) float64 { return float64(hi - lo) }
	// Warm up once so lazily-grown state settles.
	pool.ForRanger(64, Static, 0, rc)
	pool.ReduceSum(64, red)
	if avg := testing.AllocsPerRun(50, func() {
		pool.ForRanger(64, Static, 0, rc)
	}); avg > 0.5 {
		t.Fatalf("ForRanger allocates %.1f objects per call", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		pool.ReduceSum(64, red)
	}); avg > 0.5 {
		t.Fatalf("ReduceSum allocates %.1f objects per call", avg)
	}
}
