package serve

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func convTestConfig() convnet.Config {
	return convnet.Config{
		Side: 8, Filters1: 3, Kernel1: 3, Filters2: 4, Kernel2: 3,
		Pool: 2, Classes: 5, Batch: 4, Seed: 1,
	}
}

// TestConvnetServedMatchesDirectDevice is the convnet acceptance check: at
// every OptLevel, coalesced served predictions are bitwise equal to a
// direct single-example device forward at the same level, and match the
// scalar host reference bitwise at Baseline (1e-12 relative at the blocked
// levels, which regroup the K-summation).
func TestConvnetServedMatchesDirectDevice(t *testing.T) {
	cfg := convTestConfig()
	p := convnet.NewParams(cfg, 81)
	const n = 9
	xs := randExamples(n, cfg.InputDim(), 82)

	for _, lvl := range core.OptLevels {
		lvl := lvl
		t.Run(lvl.String(), func(t *testing.T) {
			srv, err := New(Convnet(cfg, p), Config{
				Level:    lvl,
				Workers:  2,
				MaxBatch: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			dev := device.New(sim.XeonPhi5110P(), true, nil)
			ctx := core.NewContext(dev, lvl, 0, 99)
			direct, err := convnet.NewInference(ctx, cfg, 4, p)
			if err != nil {
				t.Fatal(err)
			}
			defer direct.Free()
			xbuf := dev.MustAlloc(4, cfg.InputDim())
			stage := tensor.NewMatrix(4, cfg.InputDim())

			served := make([][]float64, n)
			var wg sync.WaitGroup
			for i := range xs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out, err := srv.Predict(xs[i])
					if err != nil {
						t.Errorf("Predict: %v", err)
						return
					}
					served[i] = out
				}(i)
			}
			wg.Wait()

			for i, x := range xs {
				copy(stage.RowView(0), x)
				dev.CopyIn(xbuf, stage, 0)
				out := direct.Infer(xbuf.Slice(0, 1))
				ref := tensor.NewMatrix(1, out.Cols)
				dev.CopyOut(out, ref)
				want := ref.RowView(0)
				hostWant := p.PredictProbs(cfg, x)

				for j := range want {
					if served[i][j] != want[j] {
						t.Fatalf("%s: served[%d][%d] = %g, direct device = %g (coalescing changed bits)",
							lvl, i, j, served[i][j], want[j])
					}
					if lvl == core.Baseline {
						if served[i][j] != hostWant[j] {
							t.Fatalf("Baseline: served[%d][%d] = %g, host reference = %g", i, j, served[i][j], hostWant[j])
						}
					} else if !closeRel(served[i][j], hostWant[j], 1e-12) {
						t.Fatalf("%s: served[%d][%d] = %g, host reference = %g beyond 1e-12", lvl, i, j, served[i][j], hostWant[j])
					}
				}
			}
		})
	}
}

// TestConvnetServedF32 checks the reduced-precision serving path against
// the f64 host reference within the float32 budget.
func TestConvnetServedF32(t *testing.T) {
	cfg := convTestConfig()
	p := convnet.NewParams(cfg, 91)
	srv, err := New(Convnet(cfg, p), Config{
		Level:     core.Improved,
		Precision: F32,
		MaxBatch:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i, x := range randExamples(6, cfg.InputDim(), 92) {
		probs, err := srv.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		want := p.PredictProbs(cfg, x)
		sum := 0.0
		for j := range want {
			if d := math.Abs(probs[j] - want[j]); d > 1e-4 {
				t.Fatalf("f32 probs[%d][%d] = %g, f64 reference %g (diff %g)", i, j, probs[j], want[j], d)
			}
			sum += probs[j]
		}
		if !closeRel(sum, 1, 1e-6) {
			t.Fatalf("probs sum %g", sum)
		}
	}
}

// TestUnsupportedOpTyped is the regression test for the Degrade fallback
// bug: an op the model family does not implement must return
// *UnsupportedOpError on every path — the normal admission path and the
// degraded full-queue path, which used to fall through to another family's
// forward pass (or panic).
func TestUnsupportedOpTyped(t *testing.T) {
	cfg := convTestConfig()
	srv, err := New(Convnet(cfg, nil), Config{Policy: Degrade})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := make([]float64, cfg.InputDim())
	var uerr *UnsupportedOpError

	// Normal path.
	if _, err := srv.Encode(x); !errors.As(err, &uerr) {
		t.Fatalf("convnet Encode error = %v, want *UnsupportedOpError", err)
	}
	if uerr.Kind != "convnet" || uerr.Op != OpEncode {
		t.Fatalf("error fields %+v", uerr)
	}

	// Degraded path: saturate the queue so the request is answered inline,
	// where the old code indexed into a nil model family.
	release := forceFull(srv)
	defer release()
	if _, err := srv.Reconstruct(x); !errors.As(err, &uerr) {
		t.Fatalf("degraded convnet Reconstruct error = %v, want *UnsupportedOpError", err)
	}
	if uerr.Op != OpReconstruct {
		t.Fatalf("degraded error op %v", uerr.Op)
	}
	// A supported op must still be answered inline while degraded.
	out, err := srv.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != cfg.Classes {
		t.Fatalf("degraded predict returned %d classes, want %d", len(out), cfg.Classes)
	}
}

// TestConvnetCheckpointLoad round-trips convnet parameters through a PHCK
// file into a server.
func TestConvnetCheckpointLoad(t *testing.T) {
	cfg := convTestConfig()
	p := convnet.NewParams(cfg, 101)
	var blob bytes.Buffer
	if err := p.Save(&blob); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "convnet.phck")
	if err := core.WriteCheckpoint(path, &core.Checkpoint{Step: 3, Model: blob.Bytes()}); err != nil {
		t.Fatal(err)
	}

	m, err := ConvnetFromCheckpoint(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind() != "convnet" {
		t.Fatalf("kind %q", m.Kind())
	}
	srv, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x := randExamples(1, cfg.InputDim(), 102)[0]
	got, err := srv.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	want := p.PredictProbs(cfg, x)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("checkpoint-served predict[%d] = %g, want %g", j, got[j], want[j])
		}
	}

	if _, err := ConvnetFromCheckpoint(cfg, filepath.Join(t.TempDir(), "missing.phck")); err == nil {
		t.Fatal("missing checkpoint should fail")
	}
}
