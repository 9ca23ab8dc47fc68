package tune

import (
	"strings"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/sim"
)

// smallWorkload is an AE run short enough to evaluate many times per test.
func smallWorkload(arch *sim.Arch) AEWorkload {
	return AEWorkload{
		Arch:            arch,
		Model:           autoencoder.Config{Visible: 256, Hidden: 1024},
		Batch:           250,
		Iterations:      100,
		DatasetExamples: 2000,
	}
}

// TestCandidateLevelRespected: the evaluation must honor Candidate.Level
// rather than hard-coding the Improved ladder step (the original bug), and
// OpenMP+MKL with Fuse set must be exactly the Improved configuration.
func TestCandidateLevelRespected(t *testing.T) {
	w := smallWorkload(sim.XeonPhi5110P())
	w.Iterations = 10
	eval := func(c Candidate) float64 {
		sec, err := w.Evaluate(c, w.Iterations)
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}
	base := eval(Candidate{Level: core.Baseline, Cores: 60, ThreadsPerCore: 4})
	omp := eval(Candidate{Level: core.OpenMP, Cores: 60, ThreadsPerCore: 4})
	mkl := eval(Candidate{Level: core.OpenMPMKL, Cores: 60, ThreadsPerCore: 4, Fuse: true})
	imp := eval(Candidate{Level: core.Improved, Cores: 60, ThreadsPerCore: 4, Fuse: true})
	if !(base > omp && omp > mkl) {
		t.Fatalf("ladder does not improve: baseline %g, openmp %g, mkl+fused %g", base, omp, mkl)
	}
	if mkl != imp {
		t.Fatalf("OpenMP+MKL fused (%g) differs from Improved fused (%g)", mkl, imp)
	}
}

// TestWorkloadSeedAndDeterminism: the workload's Seed field reaches the
// evaluation (zero defaults to the historical seed 1) and evaluation is
// fully deterministic.
func TestWorkloadSeedAndDeterminism(t *testing.T) {
	c := Candidate{Level: core.OpenMPMKL, Cores: 60, ThreadsPerCore: 2, Fuse: true}
	w := smallWorkload(sim.XeonPhi5110P())
	w.Iterations = 10
	a, err := w.Evaluate(c, w.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Evaluate(c, w.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different results: %g vs %g", a, b)
	}
	w.Seed = 7
	if _, err := w.Evaluate(c, w.Iterations); err != nil {
		t.Fatalf("seeded evaluation failed: %v", err)
	}
}

// TestEvaluateLeakFree: when a candidate evaluation fails mid-build (here:
// device memory exhausted after some buffers were already allocated), every
// allocation must still be released. leakCheck folds any residue into the
// returned error, so an error mentioning a leak is the regression.
func TestEvaluateLeakFree(t *testing.T) {
	arch := *sim.XeonPhi5110P()
	arch.GlobalMemBytes = 12 << 20 // first weight matrix fits, the rest do not
	w := smallWorkload(&arch)
	_, err := w.Evaluate(Candidate{Level: core.OpenMPMKL, Cores: 60, ThreadsPerCore: 4, Fuse: true}, 10)
	if err == nil {
		t.Fatal("expected an out-of-memory failure")
	}
	if strings.Contains(err.Error(), "leaked") {
		t.Fatalf("failed evaluation leaked device memory: %v", err)
	}
}
