package nn

import (
	"fmt"

	"phideep/internal/kernels"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Activation is the nonlinearity a dense layer applies after its affine map.
type Activation int

const (
	// ActSigmoid is the logistic σ of every hidden layer: the encoder
	// (Eq. 1) and both RBM conditionals (Eqs. 8–9, 14–15).
	ActSigmoid Activation = iota
	// ActSoftmax normalizes each row to a distribution (classifier output).
	ActSoftmax
	// ActIdentity leaves the affine map linear (Gaussian RBM visibles).
	ActIdentity
)

// Dense is one layer y = act(x·op(W) + b) at precision T over a weight
// packed once for the blocked kernels: the layer every served model family
// is built from, at either precision. It is immutable after NewDense and
// shared read-only by every replica of a model.
type Dense[T tensor.Float] struct {
	W   *kernels.PackedB[T]
	B   tensor.Vec[T]
	Act Activation
}

// Dense32 is the float32 layer of the reduced-precision replicas.
type Dense32 = Dense[float32]

// NewDense packs op(w), which is wᵀ when transW (a tied or RBM decoder
// reusing the encoder's weights), at precision T. At float64 the layer
// shares w and b, which must not change while it is in use; at float32 it
// rounds them once.
func NewDense[T tensor.Float](w *tensor.Matrix, transW bool, b tensor.Vector, act Activation) *Dense[T] {
	return &Dense[T]{W: kernels.PackB(tensor.As[T](w), transW), B: tensor.AsVec[T](b), Act: act}
}

// Forward computes y = act(x·op(W) + b) for the batch x, one example per
// row. y must be x.Rows × len(B).
func (d *Dense[T]) Forward(pool *parallel.Pool, lvl kernels.Level, x, y *tensor.Dense[T]) {
	kernels.GemmPacked(pool, lvl, false, 1, x, d.W, 0, y)
	kernels.AddBiasRow(pool, lvl, y, d.B)
	switch d.Act {
	case ActSigmoid:
		kernels.Sigmoid(pool, lvl, y, y)
	case ActSoftmax:
		kernels.SoftmaxRows(pool, lvl, y, y)
	}
}

// Chain is a forward-only replica of a stack of dense layers at precision
// T, running host-side on the packed kernels. The layers are shared
// read-only; each chain owns a private activation workspace per layer
// sized for maxBatch rows, so concurrent replicas never alias scratch. Not
// safe for concurrent use of a single chain.
type Chain[T tensor.Float] struct {
	layers []*Dense[T]
	pool   *parallel.Pool
	lvl    kernels.Level
	acts   []*tensor.Dense[T] // acts[l]: maxBatch×len(layers[l].B)
}

// Chain32 is the float32 chain of the reduced-precision replicas.
type Chain32 = Chain[float32]

// NewChain builds a chain over layers for up to maxBatch rows. pool may be
// nil for sequential execution; lvl picks the kernel ladder rung.
func NewChain[T tensor.Float](pool *parallel.Pool, lvl kernels.Level, maxBatch int, layers []*Dense[T]) *Chain[T] {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("nn: NewChain maxBatch %d", maxBatch))
	}
	c := &Chain[T]{layers: layers, pool: pool, lvl: lvl, acts: make([]*tensor.Dense[T], len(layers))}
	for l, d := range layers {
		c.acts[l] = tensor.New[T](maxBatch, len(d.B))
	}
	return c
}

// Depth is the number of layers.
func (c *Chain[T]) Depth() int { return len(c.layers) }

// Run feeds the batch x through the first depth layers and returns the
// last one's output, a view of the chain's workspace valid until the next
// call.
func (c *Chain[T]) Run(x *tensor.Dense[T], depth int) *tensor.Dense[T] {
	if x.Rows > c.acts[0].Rows {
		panic(fmt.Sprintf("nn: Chain input of %d rows, built for ≤%d", x.Rows, c.acts[0].Rows))
	}
	for l, d := range c.layers[:depth] {
		y := c.acts[l].RowsView(0, x.Rows)
		d.Forward(c.pool, c.lvl, x, y)
		x = y
	}
	return x
}
