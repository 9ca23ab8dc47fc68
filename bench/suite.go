package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

type suiteCfg struct {
	seed    uint64
	seconds float64
	trace   bool
	runs    int
	out     string
	outDir  string
}

// suiteResult is one set of runs: what -out writes, what -compare reads
// and what results/BENCH_<pr>.json commits.
type suiteResult struct {
	Env       environment                `json:"env"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"ops_attempted"`
	Failed    int  `json:"ops_failed"`
	// EndToEnd holds one value per untraced run, in seed order.
	EndToEnd map[string]*series `json:"end_to_end"`
	PerLayer map[string]value   `json:"per_layer,omitempty"`
	Checks   []check            `json:"checks"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// runSuite runs every workload, each run in a process of its own so that
// no workload inherits another's heap, pools or page cache state, and
// writes the set to cfg.out. It returns non-zero if any check failed.
func runSuite(cfg suiteCfg, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := &suiteResult{Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string]*workloadResult{}}
	ok := true
	child := func(def workloadDef, seed uint64, trace int) (*record, error) {
		recPath := filepath.Join(cfg.outDir, "record.json")
		defer os.Remove(recPath)
		cmd := exec.Command(self, "-workload", def.Name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-outdir", cfg.outDir, "-record", recPath)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run()
		rec := &record{}
		if err := readJSON(recPath, rec); err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s: %w", def.Name, runErr)
			}
			return nil, err
		}
		return rec, nil // a failed check exits non-zero but still leaves its record
	}
	for _, def := range workloads {
		wr := &workloadResult{Correct: true, EndToEnd: map[string]*series{}}
		res.Workloads[def.Name] = wr
		absorb := func(rec *record) {
			wr.Correct = wr.Correct && rec.Correct
			wr.Attempted += rec.Attempted
			wr.Failed += rec.Failed
			wr.Checks = append(wr.Checks, rec.Checks...)
			res.Env = mergeEnv(res.Env, rec.Env)
		}
		for i := 0; i < cfg.runs; i++ {
			rec, err := child(def, cfg.seed+uint64(i), 0)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			absorb(rec)
			for _, d := range endToEnd {
				s := wr.EndToEnd[d.Name]
				if s == nil {
					s = &series{Unit: d.Unit}
					wr.EndToEnd[d.Name] = s
				}
				s.Values = append(s.Values, rec.Metrics[d.Name].Value)
			}
		}
		if cfg.trace {
			rec, err := child(def, cfg.seed, 1)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			absorb(rec)
			wr.PerLayer = rec.Metrics
		}
		ok = ok && wr.Correct
	}
	if err = os.MkdirAll(filepath.Dir(cfg.out), 0o755); err == nil {
		err = writeJSON(cfg.out, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", cfg.out)
	if !ok {
		fmt.Fprintln(stderr, "bench: at least one correctness check failed")
		return 1
	}
	return 0
}

// mergeEnv keeps the first fingerprint and the asm share once a traced
// run has measured it.
func mergeEnv(have, next environment) environment {
	if have.GoVersion == "" {
		return next
	}
	if have.GemmAsmShare == nil {
		have.GemmAsmShare = next.GemmAsmShare
	}
	return have
}
