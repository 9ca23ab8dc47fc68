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

// Dense32 is one float32 layer y = act(x·op(W) + b) over a weight packed
// once for the blocked kernels: the layer every served model family is
// built from. It is immutable after NewDense32 and shared read-only by
// every replica of a model.
type Dense32 struct {
	W   *kernels.PackedB32
	B   tensor.Vector32
	Act Activation
}

// NewDense32 rounds w and b to float32 and packs op(w), which is wᵀ when
// transW (a tied or RBM decoder reusing the encoder's weights).
func NewDense32(w *tensor.Matrix, transW bool, b tensor.Vector, act Activation) *Dense32 {
	return &Dense32{W: kernels.PackB32(w.To32(), transW), B: b.To32(), Act: act}
}

// Forward computes y = act(x·op(W) + b) for the batch x, one example per
// row. y must be x.Rows × len(B).
func (d *Dense32) Forward(pool *parallel.Pool, lvl kernels.Level, x, y *tensor.Matrix32) {
	kernels.Gemm32Packed(pool, lvl, false, 1, x, d.W, 0, y)
	kernels.AddBiasRow32(pool, lvl, y, d.B)
	switch d.Act {
	case ActSigmoid:
		kernels.Sigmoid32(pool, lvl, y, y)
	case ActSoftmax:
		kernels.SoftmaxRows32(pool, lvl, y, y)
	}
}

// Chain32 is a forward-only float32 replica of a stack of dense layers,
// running host-side on the packed kernels. The layers are shared
// read-only; each chain owns a private activation workspace per layer sized
// for maxBatch rows, so concurrent replicas never alias scratch. Not safe
// for concurrent use of a single chain.
type Chain32 struct {
	layers []*Dense32
	pool   *parallel.Pool
	lvl    kernels.Level
	acts   []*tensor.Matrix32 // acts[l]: maxBatch×len(layers[l].B)
}

// NewChain32 builds a chain over layers for up to maxBatch rows. pool may
// be nil for sequential execution; lvl picks the kernel ladder rung.
func NewChain32(pool *parallel.Pool, lvl kernels.Level, maxBatch int, layers []*Dense32) *Chain32 {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("nn: NewChain32 maxBatch %d", maxBatch))
	}
	c := &Chain32{layers: layers, pool: pool, lvl: lvl, acts: make([]*tensor.Matrix32, len(layers))}
	for l, d := range layers {
		c.acts[l] = tensor.NewMatrix32(maxBatch, len(d.B))
	}
	return c
}

// Depth is the number of layers.
func (c *Chain32) Depth() int { return len(c.layers) }

// Run feeds the batch x through the first depth layers and returns the
// last one's output, a view of the chain's workspace valid until the next
// call.
func (c *Chain32) Run(x *tensor.Matrix32, depth int) *tensor.Matrix32 {
	if x.Rows > c.acts[0].Rows {
		panic(fmt.Sprintf("nn: Chain32 input of %d rows, built for ≤%d", x.Rows, c.acts[0].Rows))
	}
	for l, d := range c.layers[:depth] {
		y := c.acts[l].RowsView(0, x.Rows)
		d.Forward(c.pool, c.lvl, x, y)
		x = y
	}
	return x
}
