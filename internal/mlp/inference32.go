package mlp

import (
	"fmt"

	"phideep/internal/kernels"
	"phideep/internal/nn"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Params32 is a float32 snapshot of trained classifier parameters, built
// once per served model by To32 and shared read-only by the reduced-
// precision inference replicas: one dense layer per weight matrix, sigmoid
// hidden layers and a softmax output. Training never sees these.
type Params32 struct {
	layers []*nn.Dense32
}

// To32 rounds every layer to float32 and packs the weights for the
// blocked kernels.
func (p *Params) To32() *Params32 {
	c := &Params32{layers: make([]*nn.Dense32, len(p.W))}
	for l := range p.W {
		act := nn.ActSigmoid
		if l == len(p.W)-1 {
			act = nn.ActSoftmax
		}
		c.layers[l] = nn.NewDense32(p.W[l], false, p.B[l], act)
	}
	return c
}

// Inference32 is a forward-only float32 replica of the deep classifier:
// the snapshot's layers as one dense chain with private workspaces sized
// for maxBatch. Not safe for concurrent use of a single replica.
type Inference32 struct {
	chain *nn.Chain32
}

// NewInference32 builds a replica over the shared snapshot p, which must
// have been made from parameters of geometry cfg. pool may be nil for
// sequential execution; lvl picks the kernel ladder rung.
func NewInference32(pool *parallel.Pool, lvl kernels.Level, cfg Config, maxBatch int, p *Params32) *Inference32 {
	if cfg.Layers() != len(p.layers) {
		panic(fmt.Sprintf("mlp: NewInference32 config has %d layers, snapshot %d", cfg.Layers(), len(p.layers)))
	}
	return &Inference32{nn.NewChain32(pool, lvl, maxBatch, p.layers)}
}

// Infer runs the forward pass on the batch x (one example per row) and
// returns the softmax class probabilities as a workspace view valid until
// the next call.
func (m *Inference32) Infer(x *tensor.Matrix32) *tensor.Matrix32 {
	return m.chain.Run(x, m.chain.Depth())
}
