package parallel

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"phideep/internal/metrics"
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
		pool.ReduceSum(100, func(lo, hi int) float64 { return 0 })
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
// loop descriptor lives in the pool, and helpers are woken and the caller
// joined through preallocated channels), forked or run inline.
func TestForkJoinDoesNotAllocate(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	rc := &rangeCounter{seen: make(map[int]int)}
	red := func(lo, hi int) float64 { return float64(hi - lo) }
	// Warm up once so lazily-grown state settles.
	pool.ForRanger(64, Static, 0, rc)
	pool.ReduceSum(64, red)
	for _, tc := range []struct {
		name string
		c    Costed
	}{{"forked", pool.Cost(math.Inf(1))}, {"inline", pool.Cost(0)}} {
		if avg := testing.AllocsPerRun(50, func() {
			tc.c.ForRanger(64, Static, 0, rc)
		}); avg > 0.5 {
			t.Fatalf("%s ForRanger allocates %.1f objects per call", tc.name, avg)
		}
		if avg := testing.AllocsPerRun(50, func() {
			tc.c.ReduceSum(64, red)
		}); avg > 0.5 {
			t.Fatalf("%s ReduceSum allocates %.1f objects per call", tc.name, avg)
		}
	}
}

// blockList returns the blocks a region of n iterations runs on a pool of
// the given size, in index order.
func blockList(workers, n int, s Schedule, chunk int) [][2]int {
	p := newPool(workers)
	size := p.blockSize(n, s, chunk)
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		out = append(out, [2]int{lo, min(lo+size, n)})
	}
	return out
}

// TestInlineRegionRunsOnCallerOnly checks the serial cutoff's inline
// branch: a region whose cost per block is below the wake cost wakes no
// helper and runs every block of the forked partition on the caller, in
// index order. The body appends to caller state without synchronisation,
// so under -race a block run by a helper would be reported.
func TestInlineRegionRunsOnCallerOnly(t *testing.T) {
	for _, workers := range []int{2, 3, 5} {
		pool := NewPool(workers)
		for _, s := range []Schedule{Static, Dynamic} {
			for _, n := range []int{1, 2, 7, 64, 1001} {
				want := blockList(workers, n, s, 3)
				var got [][2]int
				body := func(lo, hi int) { got = append(got, [2]int{lo, hi}) }
				// Just below the cutoff: every block costs 1 ns less than a wake.
				pool.Cost(float64(len(want))*(wakeNs-1)).For(n, s, 3, body)
				if len(got) != len(want) {
					t.Fatalf("workers=%d %v n=%d: inline ran %v, want blocks %v", workers, s, n, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d %v n=%d: inline ran %v, want blocks %v", workers, s, n, got, want)
					}
				}
			}
		}
		pool.Close()
	}
}

// TestCutoffWakesOnlyAboveWakeCost watches the wake channels of a pool
// whose helpers never start: a region at or above the wake cost per block
// wakes a helper, one below it, or with a single block, wakes nobody.
func TestCutoffWakesOnlyAboveWakeCost(t *testing.T) {
	pool := newPool(2)
	defer pool.Close()
	woken := func(ns float64, n int) bool {
		pool.Cost(ns).For(n, Static, 0, func(lo, hi int) {})
		select {
		case <-pool.wake[0]:
			return true
		default:
			return false
		}
	}
	for _, tc := range []struct {
		ns   float64
		n    int
		wake bool
	}{
		{2*wakeNs - 1, 10, false},
		{2 * wakeNs, 10, true},
		{math.Inf(1), 10, true},
		{0, 10, false},
		{math.Inf(1), 1, false},
	} {
		if got := woken(tc.ns, tc.n); got != tc.wake {
			t.Errorf("cost %g over %d iterations: woke a helper %v, want %v", tc.ns, tc.n, got, tc.wake)
		}
	}
	pool.For(10, Static, 0, func(lo, hi int) {})
	if len(pool.wake[0]) != 1 {
		t.Fatal("For carries no cost estimate and must fork")
	}
}

// TestInlineReduceSumMatchesForked checks that the inline branch combines
// the same per-block partials in the same order as a fork, bit for bit,
// with a body whose sum depends on the summation order.
func TestInlineReduceSumMatchesForked(t *testing.T) {
	body := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += 1 / float64(3*i+1)
		}
		return s
	}
	for _, workers := range []int{2, 3, 5} {
		pool := NewPool(workers)
		for _, n := range []int{1, 2, 5, 17, 1000, 10007} {
			inline := pool.Cost(0).ReduceSum(n, body)
			forked := pool.Cost(math.Inf(1)).ReduceSum(n, body)
			if math.Float64bits(inline) != math.Float64bits(forked) {
				t.Fatalf("workers=%d n=%d: inline ReduceSum %v, forked %v", workers, n, inline, forked)
			}
		}
		pool.Close()
	}
}

// TestInlinePanicReachesCaller checks that a panic in an inline block
// reaches the caller and leaves the pool usable for forked and inline
// regions alike.
func TestInlinePanicReachesCaller(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	func() {
		defer func() {
			if r := recover(); r != "inline block" {
				t.Fatalf("recovered %v, want the inline block's panic", r)
			}
		}()
		pool.Cost(0).For(30, Static, 0, func(lo, hi int) {
			if lo > 0 {
				panic("inline block")
			}
		})
	}()
	for _, c := range []Costed{pool.Cost(math.Inf(1)), pool.Cost(0)} {
		counts := make([]int32, 100)
		c.For(len(counts), Dynamic, 7, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i, v := range counts {
			if v != 1 {
				t.Fatalf("after an inline panic: index %d visited %d times", i, v)
			}
		}
	}
}

// TestInlineRegionsCount checks the region counters: every region counts
// in parallel.regions, and the ones that woke no helper also in
// parallel.regions.inline, so regions per op stays comparable across the
// cutoff. A nil pool's Costed records nothing.
func TestInlineRegionsCount(t *testing.T) {
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	pool := NewPool(2)
	defer pool.Close()
	body := func(lo, hi int) {}
	count := func(f func()) (regions, inline int64) {
		r0, i0 := mRegions.Value(), mRegionsInline.Value()
		f()
		return mRegions.Value() - r0, mRegionsInline.Value() - i0
	}
	for _, tc := range []struct {
		name            string
		f               func()
		regions, inline int64
	}{
		{"forked", func() { pool.For(10, Static, 0, body) }, 1, 0},
		{"inline", func() { pool.Cost(0).For(10, Static, 0, body) }, 1, 1},
		{"one block", func() { pool.For(1, Static, 0, body) }, 1, 1},
		{"inline reduce", func() { pool.Cost(0).ReduceSum(10, func(lo, hi int) float64 { return 0 }) }, 1, 1},
		{"nil pool", func() { (*Pool)(nil).Cost(0).For(10, Static, 0, body) }, 0, 0},
	} {
		if r, i := count(tc.f); r != tc.regions || i != tc.inline {
			t.Errorf("%s: %d regions, %d inline; want %d, %d", tc.name, r, i, tc.regions, tc.inline)
		}
	}
}

// TestCallerAloneCoversEveryIndex runs regions on a pool whose helpers
// never start: the caller must claim and run every block itself and
// return, because the join waits only for blocks a helper has claimed.
func TestCallerAloneCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		pool := newPool(workers)
		for _, n := range []int{1, 5, 64, 1001} {
			for _, s := range []Schedule{Static, Dynamic} {
				counts := make([]int32, n)
				pool.For(n, s, 3, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						counts[i]++
					}
				})
				rc := &rangeCounter{seen: make(map[int]int)}
				pool.ForRanger(n, s, 3, rc)
				for i := range counts {
					if counts[i] != 1 || rc.seen[i] != 1 {
						t.Fatalf("workers=%d %v n=%d: index %d visited %d/%d times", workers, s, n, i, counts[i], rc.seen[i])
					}
				}
			}
			if got, want := pool.ReduceSum(n, func(lo, hi int) float64 { return float64(hi - lo) }), float64(n); got != want {
				t.Fatalf("workers=%d n=%d: ReduceSum %g, want %g", workers, n, got, want)
			}
		}
		pool.Close()
	}
}

// TestLateHelpersUnderStress submits thousands of back-to-back tiny
// regions, so helpers routinely wake after the caller has finished the
// region they were woken for, or in the middle of a later one. Every index
// must still run exactly once, and ReduceSum must equal the serial sum of
// the same blocks in block order, bit for bit.
func TestLateHelpersUnderStress(t *testing.T) {
	const regions = 3000
	for _, workers := range []int{2, 3, 5} {
		pool := NewPool(workers)
		counts := make([]int32, 64)
		for r := 0; r < regions; r++ {
			n := 1 + r%len(counts)
			body := func(lo, hi int) {
				if r%3 == 0 {
					runtime.Gosched()
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			}
			switch r % 3 {
			case 0:
				pool.For(n, Static, 0, body)
			case 1:
				pool.For(n, Dynamic, 1+r%4, body)
			default:
				sum := func(lo, hi int) float64 {
					s := 0.0
					for i := lo; i < hi; i++ {
						s += 1 / float64(i+r)
					}
					return s
				}
				per := (n + workers - 1) / workers
				want := 0.0
				for lo := 0; lo < n; lo += per {
					want += sum(lo, min(lo+per, n))
				}
				red := func(lo, hi int) float64 {
					body(lo, hi)
					return sum(lo, hi)
				}
				if got := pool.ReduceSum(n, red); got != want {
					t.Fatalf("workers=%d region %d: ReduceSum %v, serial %v", workers, r, got, want)
				}
			}
			for i := range counts {
				want := int32(0)
				if i < n {
					want = 1
				}
				if c := atomic.LoadInt32(&counts[i]); c != want {
					t.Fatalf("workers=%d region %d (n=%d): index %d visited %d times", workers, r, n, i, c)
				}
				counts[i] = 0
			}
		}
		pool.Close()
	}
}

// TestCallerPanicReachesCaller checks that a panic in a block the caller
// runs (block 0 is always the caller's) propagates to the caller only
// after every block a helper claimed has finished, and that the next
// region on the same pool covers every index exactly once.
func TestCallerPanicReachesCaller(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var started, finished atomic.Int32
	func() {
		defer func() {
			if r := recover(); r != "block 0" {
				t.Fatalf("recovered %v, want the caller's panic", r)
			}
			if s, f := started.Load(), finished.Load(); s != f {
				t.Fatalf("panic returned with %d of %d helper blocks still running", s-f, s)
			}
		}()
		pool.For(400, Dynamic, 10, func(lo, hi int) {
			if lo == 0 {
				time.Sleep(time.Millisecond)
				panic("block 0")
			}
			started.Add(1)
			time.Sleep(100 * time.Microsecond)
			finished.Add(1)
		})
	}()
	counts := make([]int32, 1000)
	pool.For(len(counts), Static, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("after a caller panic: index %d visited %d times", i, c)
		}
	}
}
