package stack

import (
	"fmt"
	"io"
	"os"

	"phideep/internal/core"
)

// Layer-wise checkpoint hand-off.
//
// When trainCfg.CheckpointPath is set, the stack treats it as a *base*
// path and derives one pair of files per layer:
//
//	<base>.layer<i>       — the in-progress training checkpoint for layer
//	                        i (written periodically by core.Trainer)
//	<base>.layer<i>.done  — layer i's final parameters (nn ParamSet
//	                        format), written atomically when the layer
//	                        finishes
//
// A rerun with the same base path skips every layer whose .done file
// exists (loading the stored parameters instead of retraining, so the
// encoded hand-off to the next layer is bit-identical), and resumes the
// first unfinished layer from its in-progress checkpoint if one is
// present. The caller's ResumePath is ignored by the stack — resumption
// is derived entirely from the files next to the base path. The rerun
// must use the same stack and training configuration as the original run;
// the files carry no geometry of their own.

// layerPaths derives the per-layer checkpoint file names from the base
// CheckpointPath ("" base → no checkpointing).
func layerPaths(base string, layer int) (ckpt, done string) {
	if base == "" {
		return "", ""
	}
	ckpt = fmt.Sprintf("%s.layer%d", base, layer)
	return ckpt, ckpt + ".done"
}

// fileExists reports whether path names an existing file.
func fileExists(path string) bool {
	if path == "" {
		return false
	}
	_, err := os.Stat(path)
	return err == nil
}

// loadParams reads a .done parameter file into dst via its Load method.
func loadParams(path string, load func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("stack: checkpoint: %w", err)
	}
	defer f.Close()
	if err := load(f); err != nil {
		return fmt.Errorf("stack: checkpoint %s: %w", path, err)
	}
	return nil
}

// finishLayer persists a completed layer's parameters to done and removes
// the now-redundant in-progress checkpoint.
func finishLayer(ckpt, done string, save func(io.Writer) error) error {
	if done == "" {
		return nil
	}
	if err := core.WriteFileAtomic(done, save); err != nil {
		return fmt.Errorf("stack: checkpoint: %w", err)
	}
	os.Remove(ckpt) // best-effort; the .done file is authoritative
	return nil
}
