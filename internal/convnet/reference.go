package convnet

import (
	"io"
	"math"

	"phideep/internal/nn"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Params is the host-side parameter set of the convnet: two im2col-form
// conv layers and the softmax head.
type Params struct {
	Conv1 *nn.Conv2D
	Conv2 *nn.Conv2D
	W3    *tensor.Matrix // FCInputDim×Classes
	B3    tensor.Vector
}

// NewParams returns randomly initialized parameters (Glorot-uniform
// weights, zero biases), drawn from one stream so layer draws are stable.
func NewParams(cfg Config, seed uint64) *Params {
	r := rng.New(seed)
	p := zeroParams(cfg)
	nn.InitMatrix(p.Conv1.W, r)
	nn.InitMatrix(p.Conv2.W, r)
	nn.InitMatrix(p.W3, r)
	return p
}

func zeroParams(cfg Config) *Params {
	c1, c2 := cfg.Conv1Shape(), cfg.Conv2Shape()
	return &Params{
		Conv1: &nn.Conv2D{Shape: c1, W: tensor.NewMatrix(c1.ColK(), c1.F), B: tensor.NewVector(c1.F)},
		Conv2: &nn.Conv2D{Shape: c2, W: tensor.NewMatrix(c2.ColK(), c2.F), B: tensor.NewVector(c2.F)},
		W3:    tensor.NewMatrix(cfg.FCInputDim(), cfg.Classes),
		B3:    tensor.NewVector(cfg.Classes),
	}
}

// Clone returns a deep copy.
func (p *Params) Clone() *Params {
	return &Params{Conv1: p.Conv1.Clone(), Conv2: p.Conv2.Clone(), W3: p.W3.Clone(), B3: p.B3.Clone()}
}

// ParamSet registers every layer for checkpointing and the flat-vector
// optimizers.
func (p *Params) ParamSet() *nn.ParamSet {
	ps := &nn.ParamSet{}
	p.Conv1.Register(ps, "conv1")
	p.Conv2.Register(ps, "conv2")
	ps.AddMatrix("W3", p.W3)
	ps.AddVector("b3", p.B3)
	return ps
}

// PredictProbs runs the scalar forward pass on one example (a Side² NHWC
// image) and returns the softmax class probabilities. It is the host
// reference the serving layer degrades to under overload and the oracle
// the device path is verified against: each layer accumulates from zero
// and adds its bias last, the summation order of the Naive-level lowered
// GEMM followed by AddBiasRow.
func (p *Params) PredictProbs(cfg Config, x []float64) []float64 {
	pool1 := nn.MaxPool2D{Shape: cfg.Pool1Shape()}
	pool2 := nn.MaxPool2D{Shape: cfg.Pool2Shape()}

	a1 := make([]float64, p.Conv1.Shape.OutDim())
	p.Conv1.Forward(x, a1)
	for i, v := range a1 {
		a1[i] = nn.Sigmoid(v)
	}
	h1 := make([]float64, pool1.Shape.OutDim())
	pool1.Forward(a1, h1)

	a2 := make([]float64, p.Conv2.Shape.OutDim())
	p.Conv2.Forward(h1, a2)
	for i, v := range a2 {
		a2[i] = nn.Sigmoid(v)
	}
	h2 := make([]float64, pool2.Shape.OutDim())
	pool2.Forward(a2, h2)

	out := make([]float64, cfg.Classes)
	for j := range out {
		acc := 0.0
		for k, xv := range h2 {
			acc += xv * p.W3.At(k, j)
		}
		out[j] = acc + p.B3[j]
	}
	nn.SoftmaxRow(out)
	return out
}

// Predict returns the class argmax for one example.
func (p *Params) Predict(cfg Config, x []float64) int {
	probs := p.PredictProbs(cfg, x)
	best, bestV := 0, math.Inf(-1)
	for j, v := range probs {
		if v > bestV {
			best, bestV = j, v
		}
	}
	return best
}

// Save writes the parameters to w in the phideep checkpoint format.
func (p *Params) Save(w io.Writer) error { return nn.SaveParamSet(w, p.ParamSet()) }

// Load reads parameters from r into p, validating size and checksum.
func (p *Params) Load(r io.Reader) error { return nn.LoadParamSet(r, p.ParamSet()) }
