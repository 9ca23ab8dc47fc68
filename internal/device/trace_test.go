package device

import (
	"encoding/json"
	"strings"
	"testing"

	"phideep/internal/kernels"
	"phideep/internal/metrics"
	"phideep/internal/sim"
)

func TestTraceRecordsActivities(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	d.EnableTrace(0)
	b := d.MustAlloc(10, 10)
	d.CopyIn(b, nil, 0)
	d.Exec(sim.Op{Kind: sim.OpGemm, M: 10, K: 10, N: 10, Level: kernels.ParallelBlocked, Vector: true},
		[]*Buffer{b}, []*Buffer{b}, nil)
	d.CopyOut(b, nil)

	events, dropped := d.Trace()
	if dropped != 0 {
		t.Fatalf("dropped %d", dropped)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Engine != "transfer" || !strings.Contains(events[0].Name, "copy-in") {
		t.Fatalf("event 0: %+v", events[0])
	}
	if events[1].Engine != "compute" || !strings.Contains(events[1].Name, "gemm 10x10x10") {
		t.Fatalf("event 1: %+v", events[1])
	}
	if events[2].Engine != "transfer" || !strings.Contains(events[2].Name, "copy-out") {
		t.Fatalf("event 2: %+v", events[2])
	}
	// The kernel must start after its input transfer completes.
	if events[1].Start < events[0].End {
		t.Fatal("kernel started before its input was ready")
	}
	for _, e := range events {
		if e.End < e.Start {
			t.Fatalf("negative duration: %+v", e)
		}
	}
}

func TestTraceLimitAndDisabled(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	// Disabled: no events, no panic.
	d.Exec(sim.Op{Kind: sim.OpElem, Elems: 10, Level: kernels.Naive}, nil, nil, nil)
	if ev, _ := d.Trace(); ev != nil {
		t.Fatal("events recorded while disabled")
	}
	d.EnableTrace(2)
	for i := 0; i < 5; i++ {
		d.Exec(sim.Op{Kind: sim.OpElem, Elems: 10, Level: kernels.Naive}, nil, nil, nil)
	}
	ev, dropped := d.Trace()
	if len(ev) != 2 || dropped != 3 {
		t.Fatalf("limit handling: %d events, %d dropped", len(ev), dropped)
	}
}

func TestTraceConcurrentGroup(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	d.EnableTrace(0)
	a := d.MustAlloc(100, 100)
	c := d.MustAlloc(100, 100)
	op := sim.Op{Kind: sim.OpGemm, M: 100, K: 100, N: 100, Level: kernels.ParallelBlocked, Vector: true}
	d.ExecConcurrent([]Branch{
		{Op: op, Writes: []*Buffer{a}},
		{Op: op, Writes: []*Buffer{c}},
	})
	ev, _ := d.Trace()
	if len(ev) != 2 {
		t.Fatalf("got %d events", len(ev))
	}
	for _, e := range ev {
		if !strings.Contains(e.Name, "concurrent") {
			t.Fatalf("missing concurrent tag: %+v", e)
		}
	}
	// Concurrent branches share a start window.
	if ev[0].Start != ev[1].Start {
		t.Fatalf("branches not concurrent: %g vs %g", ev[0].Start, ev[1].Start)
	}
}

func TestTraceConcurrentEventsEndAtGroupJoin(t *testing.T) {
	// Regression: branch events used to end at start+dur while the buffers
	// they write become ready only at the group end, so Chrome traces
	// showed kernels finishing before their outputs existed. Two branches
	// of very different sizes expose the gap.
	d := New(sim.XeonPhi5110P(), false, nil)
	d.EnableTrace(0)
	big := d.MustAlloc(1000, 1000)
	small := d.MustAlloc(10, 10)
	d.ExecConcurrent([]Branch{
		{Op: sim.Op{Kind: sim.OpGemm, M: 1000, K: 1000, N: 1000, Level: kernels.ParallelBlocked, Vector: true}, Writes: []*Buffer{big}},
		{Op: sim.Op{Kind: sim.OpElem, Elems: 100, Level: kernels.Parallel}, Writes: []*Buffer{small}},
	})
	ev, _ := d.Trace()
	if len(ev) != 2 {
		t.Fatalf("got %d events", len(ev))
	}
	for i, e := range ev {
		if e.End != big.ReadyAt() || e.End != small.ReadyAt() {
			t.Fatalf("event %d ends at %g before its output is ready (%g / %g)",
				i, e.End, big.ReadyAt(), small.ReadyAt())
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	d.EnableTrace(0)
	b := d.MustAlloc(5, 5)
	d.CopyIn(b, nil, 0)
	d.Exec(sim.Op{Kind: sim.OpElem, Elems: 25, Level: kernels.Parallel}, []*Buffer{b}, nil, nil)

	var sb strings.Builder
	if err := d.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed) != 2 {
		t.Fatalf("got %d chrome events", len(parsed))
	}
	if parsed[0]["ph"] != "X" || parsed[0]["tid"].(float64) != 2 {
		t.Fatalf("transfer event malformed: %+v", parsed[0])
	}
	if parsed[1]["tid"].(float64) != 1 {
		t.Fatalf("compute event malformed: %+v", parsed[1])
	}
}

// traceNamesScenario issues one activity of every traced kind: transfers
// with and without an injected fault, and kernels of every op kind alone
// and in a concurrent group.
func traceNamesScenario(t *testing.T, d *Device) {
	b := d.MustAlloc(10, 10)
	d.CopyIn(b, nil, 0)
	ops := []sim.Op{
		{Kind: sim.OpGemm, M: 10, K: 20, N: 30, Level: kernels.ParallelBlocked, Vector: true},
		{Kind: sim.OpIm2col, M: 4, K: 9, N: 36, Level: kernels.Parallel},
		{Kind: sim.OpCol2im, M: 4, K: 9, N: 36, Level: kernels.Parallel},
		{Kind: sim.OpPool, M: 4, Elems: 144, Level: kernels.Naive},
		{Kind: sim.OpElem, Elems: 100, Level: kernels.Naive},
	}
	for _, op := range ops {
		d.Exec(op, []*Buffer{b}, []*Buffer{b}, nil)
	}
	d.ExecConcurrent([]Branch{{Op: ops[0]}, {Op: ops[4]}})
	if err := d.EnableFaults(FaultConfig{Rate: 0.999999, MaxRetries: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	d.TryCopyIn(b, nil, 0)
}

// TestTraceEventNames locks the recorded names, byte for byte, now that
// they are formatted only when tracing is on.
func TestTraceEventNames(t *testing.T) {
	d := New(sim.XeonPhi5110P(), false, nil)
	d.EnableTrace(0)
	traceNamesScenario(t, d)
	want := []string{
		"copy-in 800 B",
		"gemm 10x20x30 [parallel+blocked]",
		"im2col 4 imgs 36x9 [parallel]",
		"col2im 4 imgs 36x9 [parallel]",
		"pool 4 imgs 144 elems [naive]",
		"elem 100 elems [naive]",
		"gemm 10x20x30 [parallel+blocked] (concurrent)",
		"elem 100 elems [naive] (concurrent)",
		"copy-in 800 B (fault)",
		"copy-in 800 B (fault)",
	}
	ev, _ := d.Trace()
	if len(ev) != len(want) {
		t.Fatalf("got %d events, want %d", len(ev), len(want))
	}
	for i, e := range ev {
		if e.Name != want[i] {
			t.Errorf("event %d: name %q, want %q", i, e.Name, want[i])
		}
	}
}

// TestUntracedLaunchDoesNotAllocate checks that with tracing off a warm
// Exec and a warm transfer build no trace names: neither allocates.
func TestUntracedLaunchDoesNotAllocate(t *testing.T) {
	if metrics.Enabled() {
		t.Skip("metrics collection is on")
	}
	d := New(sim.XeonPhi5110P(), false, nil)
	b := d.MustAlloc(10, 10)
	deps, writes := []*Buffer{b}, []*Buffer{b}
	op := sim.Op{Kind: sim.OpGemm, M: 10, K: 20, N: 30, Level: kernels.ParallelBlocked, Vector: true}
	if avg := testing.AllocsPerRun(100, func() { d.Exec(op, deps, writes, nil) }); avg != 0 {
		t.Errorf("untraced Exec allocates %.1f objects per call", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { d.CopyIn(b, nil, 0) }); avg != 0 {
		t.Errorf("untraced CopyIn allocates %.1f objects per call", avg)
	}
}

// TestWarmConcurrentGroupDoesNotAllocate checks that a warm two-branch
// ExecConcurrent reuses the device's scratch, and that the reuse leaves
// the simulated clock exactly where fresh scratch would: scratch left
// longer and dirty by a wider group with late dependencies must not leak
// into a later group's schedule, even after ResetTime rewinds the clock
// below those ready times.
func TestWarmConcurrentGroupDoesNotAllocate(t *testing.T) {
	if metrics.Enabled() {
		t.Skip("metrics collection is on")
	}
	gemm := sim.Op{Kind: sim.OpGemm, M: 64, K: 64, N: 64, Level: kernels.ParallelBlocked, Vector: true}
	elem := sim.Op{Kind: sim.OpElem, Elems: 4096, Level: kernels.ParallelBlocked}
	d := New(sim.XeonPhi5110P(), false, nil)
	a, b, c := d.MustAlloc(10, 10), d.MustAlloc(10, 10), d.MustAlloc(10, 10)
	branches := []Branch{{Op: gemm, Deps: []*Buffer{a}, Writes: []*Buffer{b}}, {Op: elem, Deps: []*Buffer{a}, Writes: []*Buffer{c}}}
	if avg := testing.AllocsPerRun(100, func() { d.ExecConcurrent(branches) }); avg != 0 {
		t.Errorf("warm two-branch group allocates %.1f objects per call", avg)
	}

	run := func(fresh bool) Stats {
		d := New(sim.XeonPhi5110P(), false, nil)
		a, b, c, late := d.MustAlloc(10, 10), d.MustAlloc(10, 10), d.MustAlloc(10, 10), d.MustAlloc(10, 10)
		d.Exec(sim.Op{Kind: sim.OpGemm, M: 512, K: 512, N: 512, Level: kernels.ParallelBlocked}, nil, []*Buffer{late}, nil)
		groups := [][]Branch{
			{{Op: gemm, Deps: []*Buffer{late}, Writes: []*Buffer{a}}, {Op: elem, Writes: []*Buffer{b}}, {Op: elem, Deps: []*Buffer{a}, Writes: []*Buffer{c}}},
			{{Op: gemm, Deps: []*Buffer{a}, Writes: []*Buffer{b}}, {Op: elem, Writes: []*Buffer{c}}},
			{{Op: elem, Deps: []*Buffer{b}, Writes: []*Buffer{a}}, {Op: gemm, Deps: []*Buffer{c}, Writes: []*Buffer{late}}},
		}
		exec := func(g []Branch) {
			if fresh {
				d.group = groupScratch{}
			}
			d.ExecConcurrent(g)
		}
		for _, g := range groups {
			exec(g)
		}
		d.ResetTime()
		exec([]Branch{{Op: elem}, {Op: gemm}})
		return d.Stats()
	}
	if reused, fresh := run(false), run(true); reused != fresh {
		t.Errorf("stats with reused scratch %+v, with fresh scratch %+v", reused, fresh)
	}
}
