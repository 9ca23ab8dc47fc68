package serve

import (
	"math"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/mlp"
	"phideep/internal/rbm"
)

// End-to-end cross-precision equivalence: a server at Precision F32 must
// answer Encode/Reconstruct/Predict within float32-rounding tolerance of
// the same model served at F64, and its answers must be bit-identical
// across repeated requests and servers (the weights round once, the k
// summation order is fixed). The tolerance follows the kernel suite's
// bound — per-element error grows with the reduction length, which here is
// the layer widths (≤ a few hundred), so 1e-4 absolute is generous without
// masking real defects (a wrong weight or transposed panel shows up at
// 1e-1 grade).
const precTol = 1e-4

// servePair builds f64 and f32 servers over one model snapshot and runs
// every op of the model on both, comparing per element.
func comparePrecisions(t *testing.T, m *Model, inputs [][]float64) {
	t.Helper()
	cfg := Config{Level: core.Improved, MaxBatch: 4, Workers: 2, PoolWorkers: 2}

	s64, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s64.Close()
	cfg.Precision = F32
	s32, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s32.Close()

	call := func(s *Server, op Op, x []float64) []float64 {
		t.Helper()
		var out []float64
		var err error
		switch op {
		case OpEncode:
			out, err = s.Encode(x)
		case OpReconstruct:
			out, err = s.Reconstruct(x)
		default:
			out, err = s.Predict(x)
		}
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return out
	}

	for _, op := range m.Ops() {
		for i, x := range inputs {
			want := call(s64, op, x)
			got := call(s32, op, x)
			if len(got) != len(want) {
				t.Fatalf("%s input %d: length %d vs %d", op, i, len(got), len(want))
			}
			for j := range want {
				if d := math.Abs(got[j] - want[j]); d > precTol {
					t.Fatalf("%s input %d: out[%d] = %v (f32) vs %v (f64), diff %g", op, i, j, got[j], want[j], d)
				}
			}
			// The f32 answer must be reproducible bit-for-bit: same
			// rounded weights, same fixed-order reduction.
			again := call(s32, op, x)
			for j := range got {
				if again[j] != got[j] {
					t.Fatalf("%s input %d: repeat out[%d] = %v, first %v — f32 path not deterministic", op, i, j, again[j], got[j])
				}
			}
		}
	}

	if st := s32.Stats(); st.Precision != "f32" {
		t.Fatalf("f32 server reports precision %q", st.Precision)
	}
	if st := s64.Stats(); st.Precision != "f64" {
		t.Fatalf("f64 server reports precision %q", st.Precision)
	}
}

func TestPrecisionF32MatchesF64Autoencoder(t *testing.T) {
	for _, tied := range []bool{false, true} {
		cfg := autoencoder.Config{Visible: 23, Hidden: 9, Tied: tied}
		m := Autoencoder(cfg, autoencoder.NewParams(cfg, 7))
		comparePrecisions(t, m, randExamples(6, cfg.Visible, 11))
	}
}

func TestPrecisionF32MatchesF64RBM(t *testing.T) {
	for _, gaussian := range []bool{false, true} {
		cfg := rbm.Config{Visible: 19, Hidden: 13, GaussianVisible: gaussian}
		m := RBM(cfg, rbm.NewParams(cfg, 5))
		comparePrecisions(t, m, randExamples(6, cfg.Visible, 13))
	}
}

func TestPrecisionF32MatchesF64MLP(t *testing.T) {
	cfg := mlp.Config{Sizes: []int{17, 11, 5}}
	m := MLP(cfg, mlp.NewParams(cfg, 3))
	comparePrecisions(t, m, randExamples(6, cfg.Sizes[0], 17))

	// Softmax output must still be a distribution after the f32 pass.
	s32, err := New(m, Config{Precision: F32})
	if err != nil {
		t.Fatal(err)
	}
	defer s32.Close()
	out, err := s32.Predict(randExamples(1, cfg.Sizes[0], 19)[0])
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range out {
		if v < 0 || v > 1 {
			t.Fatalf("probability %v out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

// TestPrecisionValidation pins config validation: only F64 and F32 exist.
func TestPrecisionValidation(t *testing.T) {
	cfg := aeTestConfig()
	m := Autoencoder(cfg, autoencoder.NewParams(cfg, 1))
	if _, err := New(m, Config{Precision: Precision(9)}); err == nil {
		t.Fatal("no error for unknown precision")
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Fatalf("precision names %q/%q", F64, F32)
	}
}
