package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"phideep/internal/metrics"
)

// runCfg is what one workload run is told: the seed every input derives
// from, the scale applied to the fixed operation counts and probe budgets,
// the pool width and where files go.
type runCfg struct {
	seed  uint64
	scale float64
	// floors holds every count at the floor that keeps its percentiles
	// meaningful. The end-to-end pass sets it; the traced halves and the
	// smoke test, whose timings carry no bound, do not.
	floors bool
	procs  int
	outDir string
}

// count scales a nominal operation count, never below floor (below 2
// without floors: a loss needs two points to decrease).
func (c runCfg) count(nominal, floor int) int {
	if !c.floors {
		floor = 2
	}
	n := int(math.Round(float64(nominal) * c.scale))
	if n < floor {
		n = floor
	}
	return n
}

// instance is one set-up workload: run executes the timed phase once,
// extras adds the measurements only the traced pass takes, close releases
// everything set-up built.
type instance interface {
	run() (*outcome, error)
	extras(o *outcome) error
	close()
}

// check is one correctness check on a workload's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a timed phase produced: the samples behind the
// end-to-end metrics, the failure counts, the checks, and the per-layer
// values the program's own ledgers and the benchmark's spans give.
type outcome struct {
	rowsPerS float64   // input rows processed per second
	unit     []float64 // seconds per unit (epoch, pass, step); nil when unitP50/unitTail are set directly
	unitP50  float64   // ms
	unitTail float64   // ms
	unitN    int

	attempted, failed int
	wall              float64 // seconds of the timed phase
	checks            []check
	// slow holds checks against scalar host references, which take about a
	// second: they run when the outcome is recorded, after the clock has
	// stopped, and so not at all on the traced pass's untraced half.
	slow  []func()
	layer map[string]sample
	spans []span
}

// sample is a value with the number of observations behind it.
type sample struct {
	v float64
	n int
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) set(name string, v float64, n int) {
	if o.layer == nil {
		o.layer = map[string]sample{}
	}
	o.layer[name] = sample{v, n}
}

// finish derives the unit percentiles from the unit samples.
func (o *outcome) finish() {
	if o.unit != nil {
		o.unitN = len(o.unit)
		o.unitP50 = 1e3 * median(o.unit)
		o.unitTail = 1e3 * percentile(o.unit, tailPercent(len(o.unit)))
	}
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return o.failed == 0
}

// primary is the metric metrics.on_overhead_pct compares between the
// untraced and the traced pass, oriented so that larger is worse.
func (o *outcome) primary(workload string) float64 {
	if workload == wlServeOpen {
		return o.unitP50
	}
	return 1 / o.rowsPerS
}

// setupRepeats is how many times an end-to-end run sets its workload up;
// setup_s is the median, so one slow page-in cannot move it.
const setupRepeats = 3

// record is everything one workload process learned, written with -record
// for the suite driver and summarised on the last line of standard output.
type record struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Checks    []check          `json:"checks"`
	Metrics   map[string]value `json:"metrics"`
	Env       environment      `json:"env"`
	TraceFile string           `json:"trace_file,omitempty"`
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // observations behind the value
}

// runWorkload runs one workload in this process. Untraced, it reports the
// end-to-end metrics. Traced, it runs the timed phase twice at half
// length — registry and spans off, then on — runs the layer probes, and
// reports the per-layer metrics; the difference between the two halves is
// the tracing overhead.
func runWorkload(def *workloadDef, cfg runCfg, seconds float64, trace bool) (*record, error) {
	rec := &record{Workload: def.Name, Seed: cfg.seed, Seconds: seconds, Trace: trace,
		Metrics: map[string]value{}}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	metrics.SetEnabled(false)

	if !trace {
		// The first set-up is the one that gets timed work: peak_rss_mb is
		// read when that work ends, so it is one instance's high-water
		// mark. The remaining set-ups only give setup_s its median.
		var setups []float64
		timedSetup := func() (instance, error) {
			t0 := time.Now()
			inst, err := def.setup(cfg, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			return inst, nil
		}
		inst, err := timedSetup()
		if err != nil {
			return nil, err
		}
		out, err := inst.run()
		rss := peakRSSMiB()
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.Name, err)
		}
		out.finish()
		rec.fill(out)
		for len(setups) < setupRepeats {
			if inst, err = timedSetup(); err != nil {
				return nil, err
			}
			inst.close()
		}
		rec.Metrics[mSetup] = value{median(setups), "s", len(setups)}
		rec.Metrics[mRows] = value{out.rowsPerS, "1/s", out.attempted}
		rec.Metrics[mUnitP50] = value{out.unitP50, "ms", out.unitN}
		rec.Metrics[mUnitTail] = value{out.unitTail, "ms", out.unitN}
		rec.Metrics[mRSS] = value{rss, "MiB", 1}
		rec.Env = fingerprint(cfg.procs)
		return rec, nil
	}

	half := cfg
	half.scale, half.floors = cfg.scale/2, false
	inst, err := def.setup(half, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}
	plain, err := inst.run()
	inst.close()
	if err != nil {
		return nil, fmt.Errorf("%s: untraced half: %w", def.Name, err)
	}
	plain.finish()

	tr := newTracer()
	if inst, err = def.setup(half, tr); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}
	metrics.Default().Reset()
	metrics.SetEnabled(true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := inst.run()
	runtime.ReadMemStats(&after)
	metrics.SetEnabled(false)
	snap := metrics.Default().Snapshot()
	if err == nil {
		err = inst.extras(out)
	}
	inst.close()
	if err != nil {
		return nil, fmt.Errorf("%s: traced half: %w", def.Name, err)
	}
	out.finish()
	rec.fill(out)
	rec.Checks = append(rec.Checks, plain.checks...)
	rec.Correct = rec.Correct && plain.correct()
	rec.Attempted += plain.attempted
	rec.Failed += plain.failed

	fromRegistry(out, snap)
	ops := float64(out.attempted)
	out.set("go.mallocs_per_op", float64(after.Mallocs-before.Mallocs)/ops, out.attempted)
	out.set("go.gc_cycles", float64(after.NumGC-before.NumGC), 1)
	out.set("go.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	out.set("metrics.on_overhead_pct", 100*(out.primary(def.Name)-plain.primary(def.Name))/plain.primary(def.Name), 2)
	if err := runProbes(out, cfg); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", def.Name, err)
	}
	derive(def.Name, out)

	for _, d := range perLayer {
		s := out.layer[d.Name] // a layer the workload does not touch reports 0
		rec.Metrics[d.Name] = value{s.v, d.Unit, s.n}
	}
	rec.TraceFile = filepath.Join(cfg.outDir, "trace-"+def.Name+".json")
	if err := writeChromeTrace(rec.TraceFile, out.spans); err != nil {
		return nil, err
	}
	rec.Env = fingerprint(cfg.procs)
	asm := out.layer["kernels.gemm.asm_share"].v
	rec.Env.GemmAsmShare = &asm
	return rec, nil
}

func (r *record) fill(o *outcome) {
	for _, f := range o.slow {
		f()
	}
	r.Correct = o.correct()
	r.Attempted = o.attempted
	r.Failed = o.failed
	r.Checks = o.checks
}
