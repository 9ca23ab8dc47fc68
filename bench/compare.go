package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of one end-to-end metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// exactMetrics are per-layer values the program computes without a clock:
// two runs of the same code at the same seed must report them identically.
var exactMetrics = []string{"core.trainer.chunks", "core.trainer.skipped_chunks",
	"feed.leases", "feed.commits", "feed.stalls", "feed.seeks", "cluster.syncs",
	"sim.seconds", "models.units_to_target"}

// verdict judges b against a for a metric where better says which way is
// good: worse is how much worse b's median is than a's as a share of a's
// (negative when better). Where the run-to-run spread of either side is
// wider than the bound the runs cannot tell a regression from noise, so
// the verdict is unresolved unless every run of b beats every run of a.
func verdict(a, b []float64, better string, bound float64) (v string, worse, noise float64) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if better == higher {
		worse = -worse
	}
	noise = spread(a)
	if s := spread(b); s > noise {
		noise = s
	}
	switch {
	case noise > bound && !allBetter(a, b, better):
		return verdictUnresolved, worse, noise
	case worse > bound:
		return verdictRegressed, worse, noise
	}
	return verdictOK, worse, noise
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints the verdict of every end-to-end metric on every
// workload between two result files (a the parent, b the change), then
// whether the exact counts agree. It returns non-zero on a regression, a
// failed operation or check in b, or an exact count that differs.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var a, b suiteResult
	err := readJSON(pathA, &a)
	if err == nil {
		err = readJSON(pathB, &b)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bad := false
	fmt.Fprintf(stdout, "%-20s %-13s %13s %13s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, def := range workloads {
		wa, wb := a.Workloads[def.Name], b.Workloads[def.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(stdout, "%-20s missing from one side\n", def.Name)
			bad = true
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa == nil || sb == nil || len(sa.Values) == 0 || len(sb.Values) == 0 {
				fmt.Fprintf(stdout, "%-20s %-13s missing from one side\n", def.Name, d.Name)
				bad = true
				continue
			}
			v, worse, noise := verdict(sa.Values, sb.Values, d.Better, d.Bound)
			fmt.Fprintf(stdout, "%-20s %-13s %13.6g %13.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n", def.Name, d.Name,
				median(sa.Values), median(sb.Values), 100*worse, 100*noise, 100*d.Bound, v)
			bad = bad || v == verdictRegressed
		}
		if !wb.Correct || wb.Failed != 0 {
			fmt.Fprintf(stdout, "%-20s b: correct=%v ops_failed=%d\n", def.Name, wb.Correct, wb.Failed)
			bad = true
		}
	}
	var diffs []string
	for _, def := range workloads {
		wa, wb := a.Workloads[def.Name], b.Workloads[def.Name]
		if wa == nil || wb == nil || wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, name := range exactMetrics {
			if va, vb := wa.PerLayer[name].Value, wb.PerLayer[name].Value; va != vb {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v vs %v", def.Name, name, va, vb))
			}
		}
	}
	sort.Strings(diffs)
	if len(diffs) == 0 {
		fmt.Fprintln(stdout, "exact counts: identical")
	}
	for _, d := range diffs {
		fmt.Fprintln(stdout, "exact count differs:", d)
		bad = true
	}
	if bad {
		return 1
	}
	return 0
}
