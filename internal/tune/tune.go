// Package tune automates the paper's first future-work item: "a balance
// should be found between parallelism and synchronization. For now, we need
// to adjust the number of threads manually in our implementation."
//
// The tuner searches execution configurations — optimization level,
// physical cores, hardware threads per core, loop fusion, minibatch size —
// against the simulated cost model, which evaluates a whole training run in
// microseconds. Two search strategies are provided:
//
//   - GridSearch evaluates every candidate with a full simulated run
//     (exhaustive, the original strategy).
//   - PrunedSearch first calibrates an analytical performance model from a
//     handful of short probe runs (see Calibrate and Predictor), ranks the
//     whole grid by predicted epoch time, and spends full evaluations only
//     on the predicted top k — the approach of "Performance Modelling of
//     Deep Learning on Intel Many Integrated Core Architectures"
//     (arXiv:1906.01992) applied to this simulator.
//
// The returned configuration is what a manual tuner on real silicon would
// converge to: e.g. two hardware threads per Phi core saturate the in-order
// pipeline while halving the fork/join fan-out, so the tuner prefers them
// over four for synchronization-bound workloads.
package tune

import (
	"errors"
	"fmt"
	"sort"

	"phideep/internal/core"
	"phideep/internal/sim"
)

// Candidate is one execution configuration under consideration.
type Candidate struct {
	// Level is the optimization-ladder step the run executes at. Note that
	// Fuse is the explicit fusion/concurrency knob: a Candidate at
	// core.OpenMPMKL with Fuse set is exactly the paper's "Improved
	// OpenMP+MKL" configuration, and a core.Improved candidate with Fuse
	// unset degenerates to plain OpenMP+MKL.
	Level          core.OptLevel
	Cores          int
	ThreadsPerCore int
	// Fuse enables loop fusion and the Fig. 6 concurrent scheduling.
	Fuse bool
	// Batch overrides the workload's minibatch size when non-zero. Runs
	// with a different batch are compared over the same number of training
	// examples (iterations scale inversely), so the objective stays fair.
	Batch int
}

func (c Candidate) String() string {
	fuse := "unfused"
	if c.Fuse {
		fuse = "fused"
	}
	s := fmt.Sprintf("%s, %d cores x %d threads, %s", c.Level, c.Cores, c.ThreadsPerCore, fuse)
	if c.Batch > 0 {
		s += fmt.Sprintf(", batch %d", c.Batch)
	}
	return s
}

// validate rejects configurations no device could run.
func (c Candidate) validate() error {
	if c.Cores < 1 || c.ThreadsPerCore < 1 {
		return fmt.Errorf("invalid candidate %+v", c)
	}
	if c.Batch < 0 {
		return fmt.Errorf("negative batch in candidate %+v", c)
	}
	switch c.Level {
	case core.Baseline, core.OpenMP, core.OpenMPMKL, core.Improved:
	default:
		return fmt.Errorf("unknown level in candidate %+v", c)
	}
	return nil
}

// Scored is a candidate with its evaluated and/or predicted simulated time.
type Scored struct {
	Candidate
	// SimSeconds is the fully simulated time (0 when only predicted).
	SimSeconds float64
	// Predicted is the calibrated model's estimate (0 under plain
	// GridSearch, which never predicts).
	Predicted float64
}

// CandidateError records one candidate whose evaluation failed.
type CandidateError struct {
	Candidate Candidate
	Err       error
}

func (e CandidateError) Error() string {
	return fmt.Sprintf("tune: candidate %v: %v", e.Candidate, e.Err)
}

// Unwrap exposes the underlying evaluation error to errors.Is/As.
func (e CandidateError) Unwrap() error { return e.Err }

// Result is the outcome of a search.
type Result struct {
	Best Scored
	// All holds every fully evaluated candidate, fastest first.
	All []Scored
	// Failed holds every candidate whose evaluation failed, in grid order.
	// A search succeeds as long as at least one candidate evaluates; the
	// failures are recorded here rather than dropped.
	Failed []CandidateError
	// Predicted holds the calibrated model's ranking of the entire grid
	// (fastest predicted first); set only by PrunedSearch.
	Predicted []Scored
	// Pruned counts the grid candidates PrunedSearch skipped on the
	// predictor's advice (never fully evaluated).
	Pruned int
}

// Objective evaluates a candidate, returning the simulated seconds of the
// workload under that configuration (lower is better).
type Objective func(c Candidate) (float64, error)

// GridSearch evaluates every candidate and returns the ranking. Failed
// candidates are recorded on Result.Failed; when every candidate fails the
// returned error aggregates all of them (and the Result still carries the
// per-candidate breakdown).
func GridSearch(obj Objective, candidates []Candidate) (*Result, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("tune: no candidates")
	}
	res := &Result{}
	for _, c := range candidates {
		t, err := obj(c)
		if err != nil {
			res.Failed = append(res.Failed, CandidateError{Candidate: c, Err: err})
			continue
		}
		res.All = append(res.All, Scored{Candidate: c, SimSeconds: t})
	}
	if len(res.All) == 0 {
		errs := make([]error, len(res.Failed))
		for i, f := range res.Failed {
			errs[i] = f
		}
		return res, fmt.Errorf("tune: all %d candidates failed: %w", len(res.Failed), errors.Join(errs...))
	}
	sort.Slice(res.All, func(i, j int) bool { return res.All[i].SimSeconds < res.All[j].SimSeconds })
	res.Best = res.All[0]
	return res, nil
}

// DefaultCandidates enumerates the standard grid for an architecture:
// level ∈ {OpenMP, OpenMP+MKL} (fusion is the separate Fuse axis, so
// OpenMP+MKL with Fuse set covers the paper's Improved row without
// duplicates), cores ∈ {¼, ½, ¾, all}, threads/core ∈ {1..max}, fusion on
// and off. Batch is left at the workload default.
func DefaultCandidates(arch *sim.Arch) []Candidate {
	var coreOpts []int
	for _, f := range []float64{0.25, 0.5, 0.75, 1} {
		c := int(float64(arch.Cores) * f)
		if c < 1 {
			c = 1
		}
		if len(coreOpts) == 0 || coreOpts[len(coreOpts)-1] != c {
			coreOpts = append(coreOpts, c)
		}
	}
	var out []Candidate
	for _, lvl := range []core.OptLevel{core.OpenMP, core.OpenMPMKL} {
		for _, cores := range coreOpts {
			for tpc := 1; tpc <= arch.ThreadsPerCore; tpc++ {
				for _, fuse := range []bool{false, true} {
					out = append(out, Candidate{Level: lvl, Cores: cores, ThreadsPerCore: tpc, Fuse: fuse})
				}
			}
		}
	}
	return out
}
