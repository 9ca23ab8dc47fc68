package core

import (
	"encoding/json"
	"testing"

	"phideep/internal/device"
	"phideep/internal/metrics"
	"phideep/internal/parallel"
	"phideep/internal/sim"
)

// TestRunReportObservability is the end-to-end check of the wall-clock
// observability layer: a real numeric training run, with collection
// enabled, must yield (a) non-zero epoch wall timings and throughput in the
// Result and (b) a registry snapshot whose kernel, parallel, device and
// trainer counters all moved — the exact content phitrain -metrics exports.
func TestRunReportObservability(t *testing.T) {
	metrics.Default().Reset()
	metrics.SetEnabled(true)
	defer func() {
		metrics.SetEnabled(false)
		metrics.Default().Reset()
	}()

	pool := parallel.NewPool(2)
	defer pool.Close()
	dev := device.New(sim.XeonPhi5110P(), true, pool)
	m := newAE(t, dev, Improved, 10)
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Epochs: 3, LR: 0.5, ChunkExamples: 50, BufferDepth: 2, Prefetch: true}}
	res, err := tr.Run(m, digitSource(100))
	if err != nil {
		t.Fatal(err)
	}

	// Result-side wall clock.
	if res.WallSeconds <= 0 {
		t.Fatalf("WallSeconds = %g, want > 0", res.WallSeconds)
	}
	if res.ExamplesPerSec <= 0 {
		t.Fatalf("ExamplesPerSec = %g, want > 0", res.ExamplesPerSec)
	}
	if len(res.EpochWallSeconds) != 3 {
		t.Fatalf("EpochWallSeconds has %d entries, want 3", len(res.EpochWallSeconds))
	}
	for i, sec := range res.EpochWallSeconds {
		if sec <= 0 {
			t.Fatalf("epoch %d wall time %g, want > 0", i, sec)
		}
	}

	// Registry-side counters.
	s := metrics.Default().Snapshot()
	for _, name := range []string{
		"kernels.gemm.calls",
		"device.kernel.launches",
		"device.transfers",
		"parallel.regions",
		"trainer.steps",
		"trainer.examples",
	} {
		if s.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, s.Counters[name])
		}
	}
	// Exactly one micro-kernel path serves the blocked levels on a given
	// host; between them, asm and the Go fallback must account for every
	// blocked GEMM, and something must have run blocked under Improved.
	blocked := s.Counters["kernels.gemm.path.asm"] + s.Counters["kernels.gemm.path.go"]
	if blocked <= 0 {
		t.Errorf("no blocked-path GEMM recorded (asm=%d go=%d)",
			s.Counters["kernels.gemm.path.asm"], s.Counters["kernels.gemm.path.go"])
	}
	if s.Floats["kernels.gemm.flops"] <= 0 {
		t.Errorf("kernels.gemm.flops = %g, want > 0", s.Floats["kernels.gemm.flops"])
	}
	if s.Floats["device.wall.compute_seconds"] <= 0 {
		t.Errorf("device.wall.compute_seconds = %g, want > 0", s.Floats["device.wall.compute_seconds"])
	}
	if s.Floats["device.sim.compute_seconds"] <= 0 {
		t.Errorf("device.sim.compute_seconds = %g, want > 0", s.Floats["device.sim.compute_seconds"])
	}
	if h := s.Histograms["trainer.epoch.seconds"]; h.Count != 3 || h.Sum <= 0 {
		t.Errorf("trainer.epoch.seconds count=%d sum=%g, want 3 epochs with positive time", h.Count, h.Sum)
	}
	if h := s.Histograms["kernels.gemm.seconds"]; h.Count != s.Counters["kernels.gemm.calls"] {
		t.Errorf("gemm duration observations %d != gemm calls %d", h.Count, s.Counters["kernels.gemm.calls"])
	}
	// The loading thread's balance: one wait and one idle spell per chunk.
	for _, name := range []string{"feed.loader.wait.seconds", "feed.loader.idle.seconds"} {
		if h := s.Histograms[name]; h.Count != int64(res.Chunks) {
			t.Errorf("%s count=%d, want one per chunk (%d)", name, h.Count, res.Chunks)
		}
	}

	// The snapshot is what -metrics serializes: it must marshal cleanly.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

// TestWallClockWithoutMetrics: Result wall-clock fields are filled even
// when global collection is off (they cost two clock reads per epoch), and
// the registry stays untouched.
func TestWallClockWithoutMetrics(t *testing.T) {
	metrics.Default().Reset()
	if metrics.Enabled() {
		t.Fatal("metrics unexpectedly enabled at test start")
	}
	dev := device.New(sim.XeonPhi5110P(), true, nil)
	m := newAE(t, dev, OpenMPMKL, 10)
	tr := &Trainer{Dev: dev, Cfg: TrainConfig{Epochs: 2, LR: 0.5, ChunkExamples: 50}}
	res, err := tr.Run(m, digitSource(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.WallSeconds <= 0 || len(res.EpochWallSeconds) != 2 {
		t.Fatalf("wall clock not recorded with metrics off: %g, %v", res.WallSeconds, res.EpochWallSeconds)
	}
	if got := metrics.Default().Snapshot().Counters["trainer.steps"]; got != 0 {
		t.Fatalf("registry moved while disabled: trainer.steps = %d", got)
	}
}
