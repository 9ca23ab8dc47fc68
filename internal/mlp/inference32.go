package mlp

import (
	"fmt"

	"phideep/internal/kernels"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Params32 is a float32 snapshot of trained classifier parameters, built
// once per served model by To32 and shared read-only by the reduced-
// precision inference replicas. Training never sees these.
type Params32 struct {
	W []*tensor.Matrix32
	B []tensor.Vector32

	// packed[l] is W[l] as a pack-once GEMM operand: the weights never
	// change, so the forward pass packs them here instead of per batch.
	packed []*kernels.PackedB32
}

// To32 rounds every layer to float32 and packs the weights for the
// blocked kernels.
func (p *Params) To32() *Params32 {
	c := &Params32{W: make([]*tensor.Matrix32, len(p.W)), B: make([]tensor.Vector32, len(p.B)),
		packed: make([]*kernels.PackedB32, len(p.W))}
	for l := range p.W {
		c.W[l] = p.W[l].To32()
		c.B[l] = p.B[l].To32()
		c.packed[l] = kernels.PackB32(c.W[l], false)
	}
	return c
}

// Inference32 is a forward-only float32 replica of the deep classifier
// running host-side on the packed f32 kernels: sigmoid hidden layers,
// softmax output. Weights are shared read-only; each replica owns a private
// per-layer activation workspace sized for maxBatch. Not safe for concurrent
// use of a single replica.
type Inference32 struct {
	cfg  Config
	p    *Params32
	pool *parallel.Pool
	lvl  kernels.Level

	acts []*tensor.Matrix32 // acts[l]: maxBatch×Sizes[l+1]
}

// NewInference32 builds a replica over the shared snapshot p. pool may be
// nil for sequential execution; lvl picks the kernel ladder rung.
func NewInference32(pool *parallel.Pool, lvl kernels.Level, cfg Config, maxBatch int, p *Params32) *Inference32 {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("mlp: NewInference32 maxBatch %d", maxBatch))
	}
	m := &Inference32{cfg: cfg, p: p, pool: pool, lvl: lvl, acts: make([]*tensor.Matrix32, cfg.Layers())}
	for l := range m.acts {
		m.acts[l] = tensor.NewMatrix32(maxBatch, cfg.Sizes[l+1])
	}
	return m
}

// Infer runs the forward pass on the batch x (one example per row) and
// returns the softmax class probabilities as a workspace view valid until
// the next call.
func (m *Inference32) Infer(x *tensor.Matrix32) *tensor.Matrix32 {
	if x.Cols != m.cfg.Sizes[0] || x.Rows > m.acts[0].Rows {
		panic(fmt.Sprintf("mlp: Infer32 input %dx%d, want ≤%dx%d", x.Rows, x.Cols, m.acts[0].Rows, m.cfg.Sizes[0]))
	}
	L := m.cfg.Layers()
	in := x
	for l := 0; l < L; l++ {
		out := m.acts[l].RowsView(0, x.Rows)
		kernels.Gemm32Packed(m.pool, m.lvl, false, 1, in, m.p.packed[l], 0, out)
		kernels.AddBiasRow32(m.pool, m.lvl, out, m.p.B[l])
		if l < L-1 {
			kernels.Sigmoid32(m.pool, m.lvl, out, out)
		} else {
			kernels.SoftmaxRows32(m.pool, m.lvl, out, out)
		}
		in = out
	}
	return in
}
