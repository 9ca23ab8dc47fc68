package autoencoder

import (
	"fmt"

	"phideep/internal/kernels"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Params32 is a float32 snapshot of trained autoencoder parameters, built
// once per served model by To32 and shared read-only by every reduced-
// precision inference replica. Conversion rounds each weight to nearest —
// the copy-on-load boundary of the f32 serving path; training never sees
// these.
type Params32 struct {
	W1 *tensor.Matrix32 // Visible×Hidden
	W2 *tensor.Matrix32 // Hidden×Visible
	B1 tensor.Vector32  // Hidden
	B2 tensor.Vector32  // Visible

	// The weights as pack-once GEMM operands: enc for x·W1, and both
	// decoders — W1ᵀ (tied) and W2 — because the snapshot does not know
	// which its replicas' Config selects. The weights never change, so the
	// forward pass packs them here instead of per batch.
	enc, decTied, decFree *kernels.PackedB32
}

// To32 rounds the parameters to float32 and packs the weights for the
// blocked kernels.
func (p *Params) To32() *Params32 {
	c := &Params32{W1: p.W1.To32(), W2: p.W2.To32(), B1: p.B1.To32(), B2: p.B2.To32()}
	c.enc, c.decTied, c.decFree = kernels.PackB32(c.W1, false), kernels.PackB32(c.W1, true), kernels.PackB32(c.W2, false)
	return c
}

// Inference32 is a forward-only float32 replica of a trained autoencoder.
// Unlike Model (the device-resident f64 replica), it runs host-side straight
// on the packed f32 kernels: weights are shared read-only across replicas
// while each replica owns private activation workspaces sized for maxBatch,
// so concurrent workers never alias scratch. Not safe for concurrent use of
// a single replica.
type Inference32 struct {
	cfg  Config
	p    *Params32
	pool *parallel.Pool
	lvl  kernels.Level

	y *tensor.Matrix32 // maxBatch×Hidden hidden activations
	z *tensor.Matrix32 // maxBatch×Visible reconstruction
}

// NewInference32 builds a replica over the shared snapshot p. pool may be
// nil for sequential execution; lvl picks the kernel ladder rung.
func NewInference32(pool *parallel.Pool, lvl kernels.Level, cfg Config, maxBatch int, p *Params32) *Inference32 {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("autoencoder: NewInference32 maxBatch %d", maxBatch))
	}
	return &Inference32{
		cfg: cfg, p: p, pool: pool, lvl: lvl,
		y: tensor.NewMatrix32(maxBatch, cfg.Hidden),
		z: tensor.NewMatrix32(maxBatch, cfg.Visible),
	}
}

// Encode computes y = σ(x·W1 + b1) for the batch x (one example per row)
// and returns a view of the replica's workspace valid until the next call.
func (m *Inference32) Encode(x *tensor.Matrix32) *tensor.Matrix32 {
	if x.Cols != m.cfg.Visible || x.Rows > m.y.Rows {
		panic(fmt.Sprintf("autoencoder: Encode32 input %dx%d, want ≤%dx%d", x.Rows, x.Cols, m.y.Rows, m.cfg.Visible))
	}
	y := m.y.RowsView(0, x.Rows)
	kernels.Gemm32Packed(m.pool, m.lvl, false, 1, x, m.p.enc, 0, y)
	kernels.AddBiasRow32(m.pool, m.lvl, y, m.p.B1)
	kernels.Sigmoid32(m.pool, m.lvl, y, y)
	return y
}

// Reconstruct computes the round trip z = σ(σ(x·W1+b1)·dec + b2), where the
// decoder is W1ᵀ with tied weights (the snapshot's transB-packed W1) and W2
// otherwise.
func (m *Inference32) Reconstruct(x *tensor.Matrix32) *tensor.Matrix32 {
	y := m.Encode(x)
	z := m.z.RowsView(0, x.Rows)
	dec := m.p.decFree
	if m.cfg.Tied {
		dec = m.p.decTied
	}
	kernels.Gemm32Packed(m.pool, m.lvl, false, 1, y, dec, 0, z)
	kernels.AddBiasRow32(m.pool, m.lvl, z, m.p.B2)
	kernels.Sigmoid32(m.pool, m.lvl, z, z)
	return z
}
