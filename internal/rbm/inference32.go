package rbm

import (
	"fmt"

	"phideep/internal/kernels"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Params32 is a float32 snapshot of trained RBM parameters, built once per
// served model by To32 and shared read-only by the reduced-precision
// inference replicas. Training never sees these.
type Params32 struct {
	W *tensor.Matrix32 // Visible×Hidden
	B tensor.Vector32  // visible bias (length Visible)
	C tensor.Vector32  // hidden bias (length Hidden)

	// W as pack-once GEMM operands: up for x·W (Encode), down for h·Wᵀ
	// (Reconstruct). The weights never change, so the forward pass packs
	// them here instead of per batch.
	up, down *kernels.PackedB32
}

// To32 rounds the parameters to float32 and packs the weights for the
// blocked kernels.
func (p *Params) To32() *Params32 {
	w := p.W.To32()
	return &Params32{W: w, B: p.B.To32(), C: p.C.To32(),
		up: kernels.PackB32(w, false), down: kernels.PackB32(w, true)}
}

// Inference32 is a forward-only float32 replica of a trained RBM running
// host-side on the packed f32 kernels. Weights are shared read-only; each
// replica owns private activation workspaces sized for maxBatch. Not safe
// for concurrent use of a single replica.
type Inference32 struct {
	cfg  Config
	p    *Params32
	pool *parallel.Pool
	lvl  kernels.Level

	h *tensor.Matrix32 // maxBatch×Hidden hidden probabilities
	v *tensor.Matrix32 // maxBatch×Visible reconstruction
}

// NewInference32 builds a replica over the shared snapshot p. pool may be
// nil for sequential execution; lvl picks the kernel ladder rung.
func NewInference32(pool *parallel.Pool, lvl kernels.Level, cfg Config, maxBatch int, p *Params32) *Inference32 {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("rbm: NewInference32 maxBatch %d", maxBatch))
	}
	return &Inference32{
		cfg: cfg, p: p, pool: pool, lvl: lvl,
		h: tensor.NewMatrix32(maxBatch, cfg.Hidden),
		v: tensor.NewMatrix32(maxBatch, cfg.Visible),
	}
}

// Encode computes the hidden probabilities h = σ(x·W + c) for the batch x
// (one example per row), returning a workspace view valid until the next
// call.
func (m *Inference32) Encode(x *tensor.Matrix32) *tensor.Matrix32 {
	if x.Cols != m.cfg.Visible || x.Rows > m.h.Rows {
		panic(fmt.Sprintf("rbm: Encode32 input %dx%d, want ≤%dx%d", x.Rows, x.Cols, m.h.Rows, m.cfg.Visible))
	}
	h := m.h.RowsView(0, x.Rows)
	kernels.Gemm32Packed(m.pool, m.lvl, false, 1, x, m.p.up, 0, h)
	kernels.AddBiasRow32(m.pool, m.lvl, h, m.p.C)
	kernels.Sigmoid32(m.pool, m.lvl, h, h)
	return h
}

// Reconstruct computes the mean-field round trip: hidden probabilities
// σ(x·W + c), then v = h·Wᵀ + b squashed by σ for binary visibles or left
// linear for Gaussian visibles (Config.GaussianVisible).
func (m *Inference32) Reconstruct(x *tensor.Matrix32) *tensor.Matrix32 {
	h := m.Encode(x)
	v := m.v.RowsView(0, x.Rows)
	kernels.Gemm32Packed(m.pool, m.lvl, false, 1, h, m.p.down, 0, v)
	kernels.AddBiasRow32(m.pool, m.lvl, v, m.p.B)
	if !m.cfg.GaussianVisible {
		kernels.Sigmoid32(m.pool, m.lvl, v, v)
	}
	return v
}
