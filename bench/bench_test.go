package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.v); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("an empty sample must give NaN")
	}

	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}

	// p99 needs ten samples beyond it: 1000 samples leave exactly ten.
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 90}, {140, 90}, {999, 90}, {1000, 99}, {4000, 99}} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Three windows of four; the middle one holds a stall. Per-window
	// nearest-rank p50s are 2, 200 and 6, whose median is 6: the stalled
	// window cannot move the result, where the plain p50 of all twelve
	// would be 6 only by luck and the plain p99 would be 400.
	v := []float64{1, 2, 3, 4, 100, 200, 300, 400, 5, 6, 7, 8}
	if got := windowed(v, 4, 50); got != 6 {
		t.Errorf("windowed p50 = %v, want 6", got)
	}
	if got := windowed(v, 4, 99); got != 8 {
		t.Errorf("windowed p99 = %v, want 8 (median of 4, 400, 8)", got)
	}
	// A remainder of at least half a window is a window of its own, a
	// shorter one is dropped.
	if got := windowed([]float64{1, 1, 1, 1, 2, 2, 2, 2, 9, 9}, 4, 50); got != 2 {
		t.Errorf("remainder of 2 kept: got %v, want 2 (median of 1, 2, 9)", got)
	}
	if got := windowed([]float64{1, 1, 1, 1, 2, 2, 2, 2, 9}, 4, 50); got != 1.5 {
		t.Errorf("remainder of 1 dropped: got %v, want 1.5 (median of 1, 2)", got)
	}
	// Fewer samples than one window: the plain percentile.
	if got := windowed([]float64{3, 1, 2}, 4, 50); got != 2 {
		t.Errorf("short sample: got %v, want 2", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// A stalled request handler must show up as latency on the requests it
// delayed, and every request must still be issued.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		n     = 60
		rate  = 1000.0 // one request per millisecond
		stall = 50 * time.Millisecond
		at    = 10
	)
	var calls atomic.Int64
	res := openLoop(func(i int) error {
		calls.Add(1)
		if i == at {
			time.Sleep(stall)
		}
		return nil
	}, rate, n, 1, nil) // one waiter: the stall blocks the pacer
	if calls.Load() != n {
		t.Fatalf("%d requests issued, want %d: a stall must not shrink the load", calls.Load(), n)
	}
	if res.failed != 0 {
		t.Fatalf("%d failed", res.failed)
	}
	if res.lat[at] < stall.Seconds() {
		t.Errorf("stalled request took %v s, want at least %v", res.lat[at], stall.Seconds())
	}
	// Request at+1 was due 1 ms after the stalled one and could not start
	// until the stall ended: it waited about stall-1ms before it was sent.
	if res.lat[at+1] < 0.9*stall.Seconds() {
		t.Errorf("request behind the stall took %v s; timed from its send time, not its due time?", res.lat[at+1])
	}
	if res.lat[at-1] > stall.Seconds()/2 {
		t.Errorf("request before the stall took %v s", res.lat[at-1])
	}
	if res.lateMax < 0.9*stall.Seconds()-0.001 {
		t.Errorf("generator lateness %v s, want about %v", res.lateMax, stall.Seconds())
	}
	if res.elapsed < (time.Duration(at)*time.Millisecond + stall).Seconds() {
		t.Errorf("elapsed %v s is shorter than the schedule plus the stall", res.elapsed)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "parent", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: ms(15), End: ms(20)},
		{ID: 6, Name: "other root", Start: ms(0), End: ms(100)},
	}
	// Covered: [10,60] and [90,100] = 60 ms.
	if got := selfTime(spans, 1); got != ms(40) {
		t.Errorf("self time of the parent = %v, want 40ms", got)
	}
	if got := selfTime(spans, 2); got != ms(25) {
		t.Errorf("self time of a = %v, want 25ms", got)
	}
	if got := selfTime(spans, 6); got != ms(100) {
		t.Errorf("self time of a childless span = %v, want 100ms", got)
	}
	if got := durations(spans, "a"); len(got) != 1 || got[0] != 0.03 {
		t.Errorf("durations(a) = %v, want [0.03]", got)
	}
}

func TestTracerParentsByNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin("ignored")) // a nil tracer records nothing and does not panic
	off.add("ignored", 1, time.Now(), time.Now())
	if off.snapshot() != nil {
		t.Error("nil tracer returned spans")
	}

	tr := newTracer()
	root := tr.begin("root")
	kid := tr.begin("kid")
	tr.end(kid)
	kid2 := tr.begin("kid")
	tr.end(kid2)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 3 || s[0].Parent != 0 || s[1].Parent != root || s[2].Parent != root {
		t.Fatalf("spans %+v: want a root with two children", s)
	}
	for _, sp := range s {
		if sp.End < sp.Start {
			t.Errorf("span %+v ends before it starts", sp)
		}
	}
}

func TestUnitsToTarget(t *testing.T) {
	loss := []float64{10, 8, 4, 3}
	for _, c := range []struct{ target, want float64 }{
		{12, 1},  // reached in the first unit
		{8, 2},   // exactly at the end of the second
		{6, 2.5}, // halfway through the third
		{3.5, 3.5},
	} {
		if got := unitsToTarget(loss, c.target); got != c.want {
			t.Errorf("unitsToTarget(target %v) = %v, want %v", c.target, got, c.want)
		}
	}
	if got := unitsToTarget(loss, 1); !math.IsNaN(got) {
		t.Errorf("unreached target gave %v, want NaN", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, steady, lower, 0.08, verdictOK},
		{"slower within bound", steady, []float64{105, 106, 104, 105, 105}, lower, 0.08, verdictOK},
		{"slower beyond bound", steady, []float64{115, 116, 114, 115, 115}, lower, 0.08, verdictRegressed},
		{"higher is better", steady, []float64{85, 86, 84, 85, 85}, higher, 0.08, verdictRegressed},
		{"faster", steady, []float64{50, 51, 49, 50, 50}, lower, 0.08, verdictOK},
		{"too noisy to tell", []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, lower, 0.08, verdictUnresolved},
		{"noisy but every run better", []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, lower, 0.08, verdictOK},
	} {
		if got, _, _ := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) || m.RunSeconds != nominalSeconds {
		t.Errorf("paths %v, run_seconds %d; want [bench], %v", m.Paths, m.RunSeconds, nominalSeconds)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v", m.Command)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n%+v\n%+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q / %q differs from the program's %q", i, w.Name, w.Why, workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != higher && d.Better != lower {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == mSetup && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if !hasSetup || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("setup_s present: %v; %d per-layer, %d end-to-end metrics", hasSetup, len(perLayer), len(endToEnd))
	}
}

// TestSmoke runs the traced pass of all six workloads (which runs each
// timed phase twice, untraced and traced, then the probes) and the
// end-to-end pass of the cheapest, at a fiftieth of the nominal length over
// shrunken datasets, and checks that each run is correct and reports
// exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	restore := []func(){
		swap(&aeLarge.examples, 1024), swap(&rbmSmall.examples, 2048), swap(&convFeed.examples, 1024),
		swap(&bulkExamples, 1024), swap(&clusterExamples, 1024),
	}
	defer func() {
		for _, f := range restore {
			f()
		}
	}()
	cfg := runCfg{seed: 3, scale: 0.02, procs: 2, outDir: t.TempDir()}
	smoke := func(def *workloadDef, trace bool, want []metricDef) {
		t0 := time.Now()
		rec, err := runWorkload(def, cfg, cfg.scale*nominalSeconds, trace)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", def.Name, trace, err)
		}
		t.Logf("%s trace=%v: %v", def.Name, trace, time.Since(t0).Round(time.Millisecond))
		for _, c := range rec.Checks {
			if !c.OK {
				t.Errorf("%s trace=%v: check %q failed: %s", def.Name, trace, c.Name, c.Detail)
			}
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", def.Name, trace, rec.Correct, rec.Attempted, rec.Failed)
		}
		if len(rec.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics, want %d", def.Name, trace, len(rec.Metrics), len(want))
		}
		for _, d := range want {
			v, ok := rec.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s trace=%v: metric %s missing", def.Name, trace, d.Name)
			case v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s trace=%v: %s = %v %q, want a finite value in %q", def.Name, trace, d.Name, v.Value, v.Unit, d.Unit)
			case !trace && v.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", def.Name, d.Name, v.Value)
			}
		}
		if trace {
			if _, err := os.Stat(rec.TraceFile); err != nil {
				t.Errorf("%s: trace file: %v", def.Name, err)
			}
		}
	}
	for i := range workloads {
		smoke(&workloads[i], true, perLayer)
	}
	smoke(findWorkload(wlTrainRBM), false, endToEnd)
}

func swap(p *int, v int) (restore func()) {
	old := *p
	*p = v
	return func() { *p = old }
}
