package convnet

import (
	"fmt"

	"phideep/internal/kernels"
	"phideep/internal/nn"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Params32 is a float32 snapshot of trained convnet parameters, built once
// per served model by To32 and shared read-only by the reduced-precision
// inference replicas: the two convolutions as dense layers over their
// im2col lowering, and the softmax classifier. Training never sees these.
type Params32 struct {
	conv1, conv2, fc *nn.Dense32
}

// To32 rounds every layer to float32 and packs the weights for the
// blocked kernels.
func (p *Params) To32() *Params32 {
	return &Params32{
		conv1: nn.NewDense32(p.Conv1.W, false, p.Conv1.B, nn.ActSigmoid),
		conv2: nn.NewDense32(p.Conv2.W, false, p.Conv2.B, nn.ActSigmoid),
		fc:    nn.NewDense32(p.W3, false, p.B3, nn.ActSoftmax),
	}
}

// Inference32 is a forward-only float32 replica of the convnet running
// host-side on the packed f32 kernels: the same im2col lowering as the
// training model, with float32 gathers feeding the dense layers. Weights
// are shared read-only; each replica owns a private workspace sized for
// maxBatch. Not safe for concurrent use of a single replica.
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
	m.p.conv1.Forward(m.pool, m.lvl, cols1, a1)
	kernels.MaxPool32(m.pool, m.lvl, m.p1, n, a1, pl1)

	kernels.Im2col32(m.pool, m.lvl, m.c2, n, pl1, cols2)
	m.p.conv2.Forward(m.pool, m.lvl, cols2, a2)
	kernels.MaxPool32(m.pool, m.lvl, m.p2, n, a2, pl2)

	m.p.fc.Forward(m.pool, m.lvl, pl2, out)
	return out
}
