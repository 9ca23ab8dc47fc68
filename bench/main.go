// Command bench is phideep's benchmark harness: six fixed, seeded
// workloads over training, serving, the feed and the cluster, measured end
// to end with tracing off and layer by layer with tracing on.
//
//	bash bench/run.sh -workload train-ae-large -seed 1 -seconds 8 -trace 0   one workload, in this process
//	bash bench/run.sh -seed 1 -trace 1 -out bench/out/run.json               all six, one process per run
//	bash bench/run.sh -compare a.json b.json                                 regression verdict between two sets
//
// The last line a workload run prints is one JSON object with the keys
// correct, attempted, failed and metrics. README.md documents the
// workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload in this process (default: all six, one process per run)")
		seed     = fs.Uint64("seed", 1, "seed of dataset noise, parameter initialisation and request rows")
		seconds  = fs.Float64("seconds", nominalSeconds, "length of the timed phase the operation counts are scaled to")
		trace    = fs.Int("trace", 0, "1: traced pass (registry and spans on, layer probes), reports per-layer metrics; 0: end-to-end metrics")
		outDir   = fs.String("outdir", "bench/out", "directory for trace files and scratch")
		out      = fs.String("out", "bench/out/run.json", "suite mode: result file")
		runs     = fs.Int("runs", 1, "suite mode: untraced runs per workload, each with the next seed")
		recordTo = fs.String("record", "", "workload mode: also write the full record (checks, sample counts, environment) here")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -runs at least 1, -trace 0 or 1")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	// The sandbox has 2 cores; more than 4 would only add scheduler noise.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	if *workload == "" {
		return runSuite(suiteCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, runs: *runs,
			out: *out, outDir: *outDir}, stdout, stderr)
	}
	def := findWorkload(*workload)
	if def == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	cfg := runCfg{seed: *seed, scale: *seconds / nominalSeconds, floors: true, procs: procs, outDir: *outDir}
	rec, err := runWorkload(def, cfg, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *recordTo != "" {
		if err := writeJSON(*recordTo, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printRecord(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// printRecord prints every metric by name with its unit, the failed
// checks, and last the one-line JSON summary the driver reads.
func printRecord(w io.Writer, rec *record) error {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %-8s n=%d\n", name, v.Value, v.Unit, v.N)
	}
	for _, c := range rec.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  FAILED check %q: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  ops attempted=%d failed=%d, %d checks, correct=%v\n", rec.Attempted, rec.Failed, len(rec.Checks), rec.Correct)

	type brief struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]brief `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]brief{}}
	for name, v := range rec.Metrics {
		summary.Metrics[name] = brief{v.Value, v.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil { // a NaN or Inf value: the run cannot be reported
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
