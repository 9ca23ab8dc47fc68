package convnet

import (
	"fmt"

	"phideep/internal/kernels"
	"phideep/internal/nn"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// HostParams is a snapshot of trained convnet parameters at precision T,
// built once per served model and shared read-only by its host inference
// replicas: the two convolutions as dense layers over their im2col
// lowering, and the softmax classifier. Training never sees these.
type HostParams[T tensor.Float] struct {
	conv1, conv2, fc *nn.Dense[T]
}

// NewHostParams packs every layer of p for the blocked kernels at
// precision T (see nn.NewDense).
func NewHostParams[T tensor.Float](p *Params) *HostParams[T] {
	return &HostParams[T]{
		conv1: nn.NewDense[T](p.Conv1.W, false, p.Conv1.B, nn.ActSigmoid),
		conv2: nn.NewDense[T](p.Conv2.W, false, p.Conv2.B, nn.ActSigmoid),
		fc:    nn.NewDense[T](p.W3, false, p.B3, nn.ActSoftmax),
	}
}

// HostInference is a forward-only host replica of the convnet at precision
// T, running on the packed kernels: the same im2col lowering and pooling
// as the device forward, in the same kernel order, without the argmax only
// backward reads. At float64 it answers with the device forward's bits.
// Weights are shared read-only; each replica owns a private workspace
// sized for maxBatch. Not safe for concurrent use of a single replica.
type HostInference[T tensor.Float] struct {
	cfg  Config
	p    *HostParams[T]
	pool *parallel.Pool
	lvl  kernels.Level

	c1, c2 kernels.ConvShape
	p1, p2 kernels.PoolShape

	cols1, a1, pl1 *tensor.Dense[T]
	cols2, a2, pl2 *tensor.Dense[T]
	out            *tensor.Dense[T]
}

// NewHostInference builds a replica over the shared snapshot p. pool may
// be nil for sequential execution; lvl picks the kernel ladder rung.
func NewHostInference[T tensor.Float](pool *parallel.Pool, lvl kernels.Level, cfg Config, maxBatch int, p *HostParams[T]) *HostInference[T] {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("convnet: NewHostInference maxBatch %d", maxBatch))
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &HostInference[T]{
		cfg: cfg, p: p, pool: pool, lvl: lvl,
		c1: cfg.Conv1Shape(), c2: cfg.Conv2Shape(),
		p1: cfg.Pool1Shape(), p2: cfg.Pool2Shape(),
	}
	o1HW := m.c1.OutH() * m.c1.OutW()
	o2HW := m.c2.OutH() * m.c2.OutW()
	m.cols1 = tensor.New[T](maxBatch*o1HW, m.c1.ColK())
	m.a1 = tensor.New[T](maxBatch*o1HW, m.c1.F)
	m.pl1 = tensor.New[T](maxBatch, m.p1.OutDim())
	m.cols2 = tensor.New[T](maxBatch*o2HW, m.c2.ColK())
	m.a2 = tensor.New[T](maxBatch*o2HW, m.c2.F)
	m.pl2 = tensor.New[T](maxBatch, m.p2.OutDim())
	m.out = tensor.New[T](maxBatch, cfg.Classes)
	return m
}

// Infer runs the forward pass on the batch x (one image per row) and
// returns the softmax class probabilities as a workspace view valid until
// the next call.
func (m *HostInference[T]) Infer(x *tensor.Dense[T]) *tensor.Dense[T] {
	if x.Cols != m.cfg.InputDim() || x.Rows < 1 || x.Rows > m.out.Rows {
		panic(fmt.Sprintf("convnet: host inference input %dx%d, want 1..%dx%d", x.Rows, x.Cols, m.out.Rows, m.cfg.InputDim()))
	}
	n := x.Rows
	o1HW := m.c1.OutH() * m.c1.OutW()
	o2HW := m.c2.OutH() * m.c2.OutW()
	cols1, a1 := m.cols1.RowsView(0, n*o1HW), m.a1.RowsView(0, n*o1HW)
	pl1 := m.pl1.RowsView(0, n)
	cols2, a2 := m.cols2.RowsView(0, n*o2HW), m.a2.RowsView(0, n*o2HW)
	pl2 := m.pl2.RowsView(0, n)
	out := m.out.RowsView(0, n)

	kernels.Im2col(m.pool, m.lvl, m.c1, n, x, cols1)
	m.p.conv1.Forward(m.pool, m.lvl, cols1, a1)
	kernels.MaxPool(m.pool, m.lvl, m.p1, n, a1, pl1, nil)

	kernels.Im2col(m.pool, m.lvl, m.c2, n, pl1, cols2)
	m.p.conv2.Forward(m.pool, m.lvl, cols2, a2)
	kernels.MaxPool(m.pool, m.lvl, m.p2, n, a2, pl2, nil)

	m.p.fc.Forward(m.pool, m.lvl, pl2, out)
	return out
}
