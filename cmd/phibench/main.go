// Command phibench regenerates the tables and figures of the paper's
// evaluation section on the simulated platforms, plus the ablations
// documented in DESIGN.md.
//
// Usage:
//
//	phibench -exp all            # everything (default)
//	phibench -exp table1         # one experiment
//	phibench -exp fig7-ae,fig9-rbm
//	phibench -list               # show experiment ids
//	phibench -exp fig10 -csv     # machine-readable output
//	phibench -exp table1 -metrics run.json   # + wall-clock counter snapshot
//	phibench -exp all -pprof localhost:6060  # live profiling while it runs
//
// The experiment tables report *simulated* seconds on the modeled
// platforms; -metrics captures, in addition, the real host-side cost of
// producing them (GEMM calls/FLOPs, asm-vs-fallback path counts, wall
// seconds per engine) as a JSON registry snapshot. -stats prints the same
// snapshot as a table. See DESIGN.md's "Observability" section.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"phideep/internal/experiments"
	"phideep/internal/metrics"
)

// registry maps experiment ids to their runners, in the order DESIGN.md's
// per-experiment index lists them.
var registry = []struct {
	id   string
	desc string
	run  func() *experiments.Table
}{
	{"fig7-ae", "network-size sweep, Sparse Autoencoder (Fig. 7a)", func() *experiments.Table { return experiments.Fig7(experiments.AE) }},
	{"fig7-rbm", "network-size sweep, RBM (Fig. 7b)", func() *experiments.Table { return experiments.Fig7(experiments.RBM) }},
	{"fig8-ae", "dataset-size sweep, Sparse Autoencoder (Fig. 8a)", func() *experiments.Table { return experiments.Fig8(experiments.AE) }},
	{"fig8-rbm", "dataset-size sweep, RBM (Fig. 8b)", func() *experiments.Table { return experiments.Fig8(experiments.RBM) }},
	{"fig9-ae", "batch-size sweep, Sparse Autoencoder (Fig. 9a)", func() *experiments.Table { return experiments.Fig9(experiments.AE) }},
	{"fig9-rbm", "batch-size sweep, RBM (Fig. 9b)", func() *experiments.Table { return experiments.Fig9(experiments.RBM) }},
	{"fig10", "Matlab vs Xeon Phi (Fig. 10)", experiments.Fig10},
	{"table1", "optimization ladder, 60/30 cores (Table I)", experiments.Table1},
	{"fig5-overlap", "loading-thread transfer overlap (Fig. 5, §IV.A)", experiments.Fig5Overlap},
	{"abl-vector", "ablation: VPU vectorization", experiments.AblationVectorization},
	{"abl-fusion", "ablation: loop fusion granularity", experiments.AblationLoopFusion},
	{"abl-prefetch", "ablation: prefetch pipeline", experiments.AblationPrefetch},
	{"abl-fig6", "ablation: RBM dependency-graph scheduling", experiments.AblationRBMDependencyGraph},
	{"abl-threads", "ablation: hardware threads per core", experiments.AblationThreadsPerCore},
	{"abl-cores", "ablation: core-count scaling", experiments.AblationCoreCount},
	{"abl-hosts", "platform comparison (abstract's 7-10x, Fig. 10's 16x)", experiments.AblationHostComparison},
	{"fw-hybrid", "future work: hybrid Xeon+Phi data parallelism (§VI)", experiments.HybridCrossover},
	{"fw-autotune", "future work: automatic thread/core balance (§VI)", experiments.AutoTune},
	{"sgd-vs-batch", "§III study: online SGD vs L-BFGS/CG on the Phi", experiments.BatchMethods},
	{"cluster-vs-phi", "positioning: one Phi vs a commodity cluster (§I/§III)", experiments.ClusterVsPhi},
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	outDir := flag.String("out", "", "also write each experiment as <id>.csv into this directory")
	metricsTo := flag.String("metrics", "", "write a JSON metrics snapshot (wall-clock counters across all experiments run) to this file")
	stats := flag.Bool("stats", false, "print the metrics registry as a table at the end")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "phibench: pprof:", err)
			}
		}()
	}
	if *metricsTo != "" || *stats {
		metrics.SetEnabled(true)
	}

	if *list {
		for _, e := range registry {
			fmt.Printf("%-14s %s\n", e.id, e.desc)
		}
		return
	}

	want := map[string]bool{}
	all := *exp == "all"
	if !all {
		for _, id := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range registry {
		known[e.id] = true
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "phibench: unknown experiment id(s): %s (use -list)\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}

	ran := 0
	for _, e := range registry {
		if !all && !want[e.id] {
			continue
		}
		t := e.run()
		if *csv {
			t.WriteCSV(os.Stdout)
		} else {
			t.Fprint(os.Stdout)
		}
		if *outDir != "" {
			if err := writeCSVFile(*outDir, e.id, t); err != nil {
				fmt.Fprintln(os.Stderr, "phibench:", err)
				os.Exit(1)
			}
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "phibench: nothing to run (use -list)")
		os.Exit(2)
	}
	if *metricsTo != "" {
		if err := writeSnapshot(*metricsTo); err != nil {
			fmt.Fprintln(os.Stderr, "phibench:", err)
			os.Exit(1)
		}
	}
	if *stats {
		fmt.Println("== metrics (wall clock vs simulated; see DESIGN.md \"Observability\") ==")
		if err := metrics.Default().Snapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "phibench:", err)
		}
	}
}

// writeSnapshot dumps the metrics registry as indented JSON to path.
func writeSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing metrics snapshot: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(metrics.Default().Snapshot()); err != nil {
		return fmt.Errorf("writing metrics snapshot: %w", err)
	}
	return nil
}

// writeCSVFile writes one experiment's table as <dir>/<id>.csv.
func writeCSVFile(dir, id string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	t.WriteCSV(f)
	return nil
}
