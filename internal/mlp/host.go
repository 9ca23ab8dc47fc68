package mlp

import (
	"fmt"

	"phideep/internal/kernels"
	"phideep/internal/nn"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// HostParams is a snapshot of trained classifier parameters at precision
// T, built once per served model and shared read-only by its host
// inference replicas: one dense layer per weight matrix, sigmoid hidden
// layers and a softmax output. Training never sees these.
type HostParams[T tensor.Float] struct {
	layers []*nn.Dense[T]
}

// Params32 is the float32 snapshot of the reduced-precision replicas.
type Params32 = HostParams[float32]

// NewHostParams packs every layer of p for the blocked kernels at
// precision T (see nn.NewDense).
func NewHostParams[T tensor.Float](p *Params) *HostParams[T] {
	c := &HostParams[T]{layers: make([]*nn.Dense[T], len(p.W))}
	for l := range p.W {
		act := nn.ActSigmoid
		if l == len(p.W)-1 {
			act = nn.ActSoftmax
		}
		c.layers[l] = nn.NewDense[T](p.W[l], false, p.B[l], act)
	}
	return c
}

// To32 rounds every layer to float32 and packs the weights.
func (p *Params) To32() *Params32 { return NewHostParams[float32](p) }

// HostInference is a forward-only host replica of the deep classifier at
// precision T: the snapshot's layers as one dense chain with private
// workspaces sized for maxBatch. At float64 it issues the kernels of the
// device forward (Model.Infer) in the same order, so it answers with the
// same bits. Not safe for concurrent use of a single replica.
type HostInference[T tensor.Float] struct {
	chain *nn.Chain[T]
}

// Inference32 is the float32 replica of the reduced-precision path.
type Inference32 = HostInference[float32]

// NewHostInference builds a replica over the shared snapshot p, which must
// have been made from parameters of geometry cfg. pool may be nil for
// sequential execution; lvl picks the kernel ladder rung.
func NewHostInference[T tensor.Float](pool *parallel.Pool, lvl kernels.Level, cfg Config, maxBatch int, p *HostParams[T]) *HostInference[T] {
	if cfg.Layers() != len(p.layers) {
		panic(fmt.Sprintf("mlp: NewHostInference config has %d layers, snapshot %d", cfg.Layers(), len(p.layers)))
	}
	return &HostInference[T]{nn.NewChain(pool, lvl, maxBatch, p.layers)}
}

// NewInference32 is NewHostInference at float32.
func NewInference32(pool *parallel.Pool, lvl kernels.Level, cfg Config, maxBatch int, p *Params32) *Inference32 {
	return NewHostInference(pool, lvl, cfg, maxBatch, p)
}

// Infer runs the forward pass on the batch x (one example per row) and
// returns the softmax class probabilities as a workspace view valid until
// the next call.
func (m *HostInference[T]) Infer(x *tensor.Dense[T]) *tensor.Dense[T] {
	return m.chain.Run(x, m.chain.Depth())
}
