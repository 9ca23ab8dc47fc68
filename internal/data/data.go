// Package data provides the training datasets of the paper's evaluation —
// "a large [set] of handwritten digit images and natural images [from which]
// we obtain the training examples by randomly extracting patches of required
// sizes" — as deterministic synthetic generators.
//
// The original corpora (MNIST-style digits, the Olshausen natural-image
// set) are not available offline, so the generators synthesize images with
// the same relevant structure: digits are stroke-rendered glyphs with random
// geometry and noise; natural images are multi-octave smoothed noise with a
// 1/f-like spectrum, the statistics sparse coding and autoencoders are
// classically trained on. Example i is a pure function of (seed, i), so
// datasets of any size stream without being materialized, and every
// experiment is reproducible bit-for-bit.
package data

import (
	"fmt"

	"phideep/internal/tensor"
)

// Source yields training examples by index range. Implementations must be
// safe for concurrent Chunk calls. Chunk may run on a loading thread
// (feed.Loader, the Fig. 5 prefetcher) while a training step runs on
// another goroutine, so it must not touch the device: a source that
// derives its examples from a trained model (stack.Encoded) evaluates it on
// host copies of the weights.
type Source interface {
	// Dim returns the dimensionality of one example.
	Dim() int
	// Len returns the total number of examples.
	Len() int
	// Chunk fills dst, which must be n×Dim(), with examples
	// [start, start+n). Indices wrap modulo Len(), so multi-epoch
	// training can stream past the end.
	Chunk(start, n int, dst *tensor.Matrix)
}

// Labeled is a Source whose examples carry integer class labels (*Digits
// satisfies it). Labels must be stable: Label(idx) is a pure function of
// the source and idx, safe for concurrent calls like Chunk.
type Labeled interface {
	Source
	// Label returns the class of example idx.
	Label(idx int) int
}

// checkChunk validates a Chunk request against the source geometry.
func checkChunk(s Source, start, n int, dst *tensor.Matrix) {
	if start < 0 || n < 0 {
		panic(fmt.Sprintf("data: Chunk(start=%d, n=%d): negative argument", start, n))
	}
	if dst.Rows != n || dst.Cols != s.Dim() {
		panic(fmt.Sprintf("data: Chunk destination %dx%d, want %dx%d", dst.Rows, dst.Cols, n, s.Dim()))
	}
	if s.Len() == 0 && n > 0 {
		panic("data: Chunk from empty source")
	}
}

// Null is a Source that reports a geometry but generates nothing: the
// companion of model-only devices, where the floats are never read. Chunk
// leaves dst untouched.
type Null struct {
	D, N int
}

// Dim implements Source.
func (s Null) Dim() int { return s.D }

// Len implements Source.
func (s Null) Len() int { return s.N }

// Chunk implements Source as a no-op.
func (s Null) Chunk(start, n int, dst *tensor.Matrix) { checkChunk(s, start, n, dst) }

// NullLabeled is Null with a deterministic label stream: example i carries
// label i mod Classes. It satisfies Labeled, so timing-only tuning runs can
// drive the supervised trainers (MLP, convnet) on model-only devices
// without generating any floats.
type NullLabeled struct {
	Null
	Classes int
}

// Label implements the labeled-source contract.
func (s NullLabeled) Label(idx int) int {
	if s.Classes <= 0 {
		return 0
	}
	return idx % s.Classes
}

// InMemory serves examples from a concrete matrix (one example per row).
// Used by tests and by the batch optimizers that need the whole set.
type InMemory struct {
	X *tensor.Matrix
}

// Dim implements Source.
func (s InMemory) Dim() int { return s.X.Cols }

// Len implements Source.
func (s InMemory) Len() int { return s.X.Rows }

// Chunk implements Source.
func (s InMemory) Chunk(start, n int, dst *tensor.Matrix) {
	checkChunk(s, start, n, dst)
	for i := 0; i < n; i++ {
		copy(dst.RowView(i), s.X.RowView((start+i)%s.X.Rows))
	}
}

// Materialize reads all of src into one matrix.
func Materialize(src Source) *tensor.Matrix {
	out := tensor.NewMatrix(src.Len(), src.Dim())
	src.Chunk(0, src.Len(), out)
	return out
}

// Rescale maps m's elements affinely from [min, max] (computed over m) to
// [lo, hi]; constant matrices map to the midpoint. The UFLDL convention for
// sigmoid autoencoders is [0.1, 0.9].
func Rescale(m *tensor.Matrix, lo, hi float64) {
	if m.Rows == 0 || m.Cols == 0 {
		return
	}
	minV, maxV := m.At(0, 0), m.At(0, 0)
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.RowView(i) {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	span := maxV - minV
	if span == 0 {
		mid := (lo + hi) / 2
		m.Fill(mid)
		return
	}
	scale := (hi - lo) / span
	m.Apply(func(v float64) float64 { return lo + (v-minV)*scale })
}
