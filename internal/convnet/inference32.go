package convnet

import (
	"fmt"

	"phideep/internal/kernels"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Params32 is a float32 snapshot of trained convnet parameters, built once
// per served model by To32 and shared read-only by the reduced-precision
// inference replicas. Training never sees these.
type Params32 struct {
	W1 *tensor.Matrix32
	B1 tensor.Vector32
	W2 *tensor.Matrix32
	B2 tensor.Vector32
	W3 *tensor.Matrix32
	B3 tensor.Vector32

	// W1..W3 as pack-once GEMM operands: the weights never change, so the
	// forward pass packs them here instead of per batch.
	p1, p2, p3 *kernels.PackedB32
}

// To32 rounds every layer to float32 and packs the weights for the
// blocked kernels.
func (p *Params) To32() *Params32 {
	c := &Params32{
		W1: p.Conv1.W.To32(), B1: p.Conv1.B.To32(),
		W2: p.Conv2.W.To32(), B2: p.Conv2.B.To32(),
		W3: p.W3.To32(), B3: p.B3.To32(),
	}
	c.p1, c.p2, c.p3 = kernels.PackB32(c.W1, false), kernels.PackB32(c.W2, false), kernels.PackB32(c.W3, false)
	return c
}

// Inference32 is a forward-only float32 replica of the convnet running
// host-side on the packed f32 kernels: the same im2col lowering as the
// training model, with float32 gathers feeding Gemm32. Weights are shared
// read-only; each replica owns a private workspace sized for maxBatch.
// Not safe for concurrent use of a single replica.
type Inference32 struct {
	cfg  Config
	p    *Params32
	pool *parallel.Pool
	lvl  kernels.Level

	c1, c2 kernels.ConvShape
	p1, p2 kernels.PoolShape

	cols1, a1, pl1 *tensor.Matrix32
	cols2, a2, pl2 *tensor.Matrix32
	out            *tensor.Matrix32
}

// NewInference32 builds a replica over the shared snapshot p. pool may be
// nil for sequential execution; lvl picks the kernel ladder rung.
func NewInference32(pool *parallel.Pool, lvl kernels.Level, cfg Config, maxBatch int, p *Params32) *Inference32 {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("convnet: NewInference32 maxBatch %d", maxBatch))
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Inference32{
		cfg: cfg, p: p, pool: pool, lvl: lvl,
		c1: cfg.Conv1Shape(), c2: cfg.Conv2Shape(),
		p1: cfg.Pool1Shape(), p2: cfg.Pool2Shape(),
	}
	o1HW := m.c1.OutH() * m.c1.OutW()
	o2HW := m.c2.OutH() * m.c2.OutW()
	m.cols1 = tensor.NewMatrix32(maxBatch*o1HW, m.c1.ColK())
	m.a1 = tensor.NewMatrix32(maxBatch*o1HW, m.c1.F)
	m.pl1 = tensor.NewMatrix32(maxBatch, m.p1.OutDim())
	m.cols2 = tensor.NewMatrix32(maxBatch*o2HW, m.c2.ColK())
	m.a2 = tensor.NewMatrix32(maxBatch*o2HW, m.c2.F)
	m.pl2 = tensor.NewMatrix32(maxBatch, m.p2.OutDim())
	m.out = tensor.NewMatrix32(maxBatch, cfg.Classes)
	return m
}

// Infer runs the forward pass on the batch x (one image per row) and
// returns the softmax class probabilities as a workspace view valid until
// the next call.
func (m *Inference32) Infer(x *tensor.Matrix32) *tensor.Matrix32 {
	if x.Cols != m.cfg.InputDim() || x.Rows < 1 || x.Rows > m.out.Rows {
		panic(fmt.Sprintf("convnet: Infer32 input %dx%d, want 1..%dx%d", x.Rows, x.Cols, m.out.Rows, m.cfg.InputDim()))
	}
	n := x.Rows
	o1HW := m.c1.OutH() * m.c1.OutW()
	o2HW := m.c2.OutH() * m.c2.OutW()
	cols1, a1 := m.cols1.RowsView(0, n*o1HW), m.a1.RowsView(0, n*o1HW)
	pl1 := m.pl1.RowsView(0, n)
	cols2, a2 := m.cols2.RowsView(0, n*o2HW), m.a2.RowsView(0, n*o2HW)
	pl2 := m.pl2.RowsView(0, n)
	out := m.out.RowsView(0, n)

	kernels.Im2col32(m.pool, m.lvl, m.c1, n, x, cols1)
	kernels.Gemm32Packed(m.pool, m.lvl, false, 1, cols1, m.p.p1, 0, a1)
	kernels.AddBiasRow32(m.pool, m.lvl, a1, m.p.B1)
	kernels.Sigmoid32(m.pool, m.lvl, a1, a1)
	kernels.MaxPool32(m.pool, m.lvl, m.p1, n, a1, pl1)

	kernels.Im2col32(m.pool, m.lvl, m.c2, n, pl1, cols2)
	kernels.Gemm32Packed(m.pool, m.lvl, false, 1, cols2, m.p.p2, 0, a2)
	kernels.AddBiasRow32(m.pool, m.lvl, a2, m.p.B2)
	kernels.Sigmoid32(m.pool, m.lvl, a2, a2)
	kernels.MaxPool32(m.pool, m.lvl, m.p2, n, a2, pl2)

	kernels.Gemm32Packed(m.pool, m.lvl, false, 1, pl2, m.p.p3, 0, out)
	kernels.AddBiasRow32(m.pool, m.lvl, out, m.p.B3)
	kernels.SoftmaxRows32(m.pool, m.lvl, out, out)
	return out
}
