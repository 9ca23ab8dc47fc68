// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V) from the simulated platforms, one target per exhibit:
//
//	go test -bench=. -benchmem
//
// Each benchmark drives the same runners as cmd/phibench and reports the
// headline simulated quantity as a custom metric (sim-seconds or speedup),
// so the paper-vs-measured comparison in EXPERIMENTS.md can be refreshed
// from the bench output. The Ablation* targets cover the design choices
// DESIGN.md calls out. Wall-clock kernel and training numbers come from
// the bench/ harness (bash bench/run.sh), which checks outputs and bounds
// every metric.
package phideep_test

import (
	"strconv"
	"strings"
	"testing"

	"phideep/internal/experiments"
)

// simSeconds extracts the float value of a table cell like "97.5 s",
// "55.9 ms" or "16.4x".
func simSeconds(cell string) float64 {
	cell = strings.TrimSpace(cell)
	mult := 1.0
	switch {
	case strings.HasSuffix(cell, " ms"):
		cell, mult = strings.TrimSuffix(cell, " ms"), 1e-3
	case strings.HasSuffix(cell, " µs"):
		cell, mult = strings.TrimSuffix(cell, " µs"), 1e-6
	case strings.HasSuffix(cell, " s"):
		cell = strings.TrimSuffix(cell, " s")
	case strings.HasSuffix(cell, "x"):
		cell = strings.TrimSuffix(cell, "x")
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// benchTable runs a table generator b.N times and reports metrics extracted
// from named cells of the last run.
func benchTable(b *testing.B, run func() *experiments.Table, metrics map[string][2]int) {
	b.Helper()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = run()
	}
	b.StopTimer()
	for name, rc := range metrics {
		b.ReportMetric(simSeconds(t.Rows[rc[0]][rc[1]]), name)
	}
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// BenchmarkFig7NetworkSizeAutoencoder regenerates Fig. 7(a): the
// network-size sweep for the Sparse Autoencoder. Metrics: simulated seconds
// on the Phi for the smallest and largest networks and the largest-network
// speedup over one CPU core.
func BenchmarkFig7NetworkSizeAutoencoder(b *testing.B) {
	benchTable(b, func() *experiments.Table { return experiments.Fig7(experiments.AE) },
		map[string][2]int{
			"phi-small-s":   {0, 2},
			"phi-large-s":   {3, 2},
			"speedup-large": {3, 3},
		})
}

// BenchmarkFig7NetworkSizeRBM regenerates Fig. 7(b) for the RBM.
func BenchmarkFig7NetworkSizeRBM(b *testing.B) {
	benchTable(b, func() *experiments.Table { return experiments.Fig7(experiments.RBM) },
		map[string][2]int{
			"phi-small-s":   {0, 2},
			"phi-large-s":   {3, 2},
			"speedup-large": {3, 3},
		})
}

// BenchmarkFig8DatasetSizeAutoencoder regenerates Fig. 8(a): dataset-size
// sweep, Autoencoder.
func BenchmarkFig8DatasetSizeAutoencoder(b *testing.B) {
	benchTable(b, func() *experiments.Table { return experiments.Fig8(experiments.AE) },
		map[string][2]int{
			"phi-100k-s": {0, 2},
			"phi-1M-s":   {4, 2},
			"cpu-1M-s":   {4, 1},
		})
}

// BenchmarkFig8DatasetSizeRBM regenerates Fig. 8(b) for the RBM.
func BenchmarkFig8DatasetSizeRBM(b *testing.B) {
	benchTable(b, func() *experiments.Table { return experiments.Fig8(experiments.RBM) },
		map[string][2]int{
			"phi-100k-s": {0, 2},
			"phi-1M-s":   {4, 2},
		})
}

// BenchmarkFig9BatchSizeAutoencoder regenerates Fig. 9(a): batch-size
// sweep, Autoencoder. The paper's claim — Phi time drops by roughly two
// thirds from batch 200 to 10 000 — is the phi-drop metric (≈3 or more).
func BenchmarkFig9BatchSizeAutoencoder(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig9(experiments.AE)
	}
	b.StopTimer()
	small := simSeconds(t.Rows[0][2])
	large := simSeconds(t.Rows[5][2])
	b.ReportMetric(small, "phi-batch200-s")
	b.ReportMetric(large, "phi-batch10000-s")
	b.ReportMetric(small/large, "phi-drop")
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// BenchmarkFig9BatchSizeRBM regenerates Fig. 9(b) for the RBM.
func BenchmarkFig9BatchSizeRBM(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig9(experiments.RBM)
	}
	b.StopTimer()
	small := simSeconds(t.Rows[0][2])
	large := simSeconds(t.Rows[5][2])
	b.ReportMetric(small/large, "phi-drop")
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// BenchmarkFig10Matlab regenerates Fig. 10: Matlab on the host CPU versus
// the Phi (paper: ≈16×; the speedup metric is the smallest, paper-scale
// network).
func BenchmarkFig10Matlab(b *testing.B) {
	benchTable(b, experiments.Fig10,
		map[string][2]int{
			"speedup-576x1024":  {0, 3},
			"speedup-1024x4096": {1, 3},
		})
}

// BenchmarkTable1OptimizationSteps regenerates Table I: the optimization
// ladder at 60 and 30 cores. Paper: 16042 s → 892 s → 97 s → 53 s and
// speedups 302× / 197×.
func BenchmarkTable1OptimizationSteps(b *testing.B) {
	benchTable(b, experiments.Table1,
		map[string][2]int{
			"baseline60-s": {0, 1},
			"openmp60-s":   {1, 1},
			"mkl60-s":      {2, 1},
			"improved60-s": {3, 1},
			"improved30-s": {3, 2},
			"speedup60":    {4, 1},
			"speedup30":    {4, 2},
		})
}

// BenchmarkFig5TransferOverlap regenerates the §IV.A loading-thread
// measurement (transfers ≈17% of unoverlapped time; hidden with prefetch).
func BenchmarkFig5TransferOverlap(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig5Overlap()
	}
	b.StopTimer()
	sync := simSeconds(t.Rows[0][1])
	pre := simSeconds(t.Rows[1][1])
	b.ReportMetric(sync, "sync-s")
	b.ReportMetric(pre, "prefetch-s")
	b.ReportMetric((sync-pre)/sync*100, "saved-pct")
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// --- Ablations (design choices from DESIGN.md) ---

func BenchmarkAblationVectorization(b *testing.B) {
	benchTable(b, experiments.AblationVectorization,
		map[string][2]int{"scalar-slowdown": {1, 2}})
}

func BenchmarkAblationLoopFusion(b *testing.B) {
	benchTable(b, experiments.AblationLoopFusion,
		map[string][2]int{"unfused-slowdown": {1, 2}})
}

func BenchmarkAblationPrefetch(b *testing.B) {
	benchTable(b, experiments.AblationPrefetch,
		map[string][2]int{"sync-slowdown": {1, 2}})
}

func BenchmarkAblationRBMDependencyGraph(b *testing.B) {
	benchTable(b, experiments.AblationRBMDependencyGraph,
		map[string][2]int{"serial-slowdown": {1, 2}})
}

func BenchmarkAblationThreadsPerCore(b *testing.B) {
	benchTable(b, experiments.AblationThreadsPerCore,
		map[string][2]int{
			"tpc1-s": {0, 2},
			"tpc2-s": {1, 2},
			"tpc4-s": {3, 2},
		})
}

func BenchmarkAblationCoreScaling(b *testing.B) {
	benchTable(b, experiments.AblationCoreCount,
		map[string][2]int{"speedup-60core": {5, 2}})
}

func BenchmarkAblationHostComparison(b *testing.B) {
	benchTable(b, experiments.AblationHostComparison,
		map[string][2]int{
			"vs-1core":  {0, 2},
			"vs-dual":   {2, 2},
			"vs-matlab": {3, 2},
		})
}

// BenchmarkFutureWorkHybrid regenerates the §VI hybrid host+Phi prediction:
// gain on small models, loss on large ones.
func BenchmarkFutureWorkHybrid(b *testing.B) {
	benchTable(b, experiments.HybridCrossover,
		map[string][2]int{
			"gain-small": {0, 3},
			"gain-large": {3, 3},
		})
}

// BenchmarkFutureWorkAutoTune regenerates the §VI thread-balance tuner.
func BenchmarkFutureWorkAutoTune(b *testing.B) {
	benchTable(b, experiments.AutoTune,
		map[string][2]int{"gain-batch200": {1, 4}})
}

// BenchmarkSGDVsBatchMethods regenerates the §III trade-off study: batch
// methods are device-friendly but spend far more simulated time per update.
func BenchmarkSGDVsBatchMethods(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.BatchMethods()
	}
	b.StopTimer()
	b.ReportMetric(simSeconds(t.Rows[0][4]), "sgd-s")
	b.ReportMetric(simSeconds(t.Rows[1][4]), "lbfgs-s")
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// BenchmarkClusterVsPhi regenerates the positioning study: one coprocessor
// against a commodity parameter-averaging cluster.
func BenchmarkClusterVsPhi(b *testing.B) {
	benchTable(b, experiments.ClusterVsPhi,
		map[string][2]int{
			"cluster16-s": {3, 1},
			"phi-s":       {4, 1},
		})
}
