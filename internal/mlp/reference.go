package mlp

import (
	"fmt"
	"io"
	"math"

	"phideep/internal/nn"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Params is the host-side parameter set of the deep classifier.
type Params struct {
	W []*tensor.Matrix
	B []tensor.Vector
}

// NewParams returns randomly initialized parameters (symmetric uniform
// weights, zero biases).
func NewParams(cfg Config, seed uint64) *Params {
	r := rng.New(seed)
	p := zeroParams(cfg)
	for l := range p.W {
		nn.InitMatrix(p.W[l], r)
	}
	return p
}

func zeroParams(cfg Config) *Params {
	L := cfg.Layers()
	p := &Params{W: make([]*tensor.Matrix, L), B: make([]tensor.Vector, L)}
	for l := 0; l < L; l++ {
		p.W[l] = tensor.NewMatrix(cfg.Sizes[l], cfg.Sizes[l+1])
		p.B[l] = tensor.NewVector(cfg.Sizes[l+1])
	}
	return p
}

// Clone deep-copies the parameters.
func (p *Params) Clone() *Params {
	c := &Params{W: make([]*tensor.Matrix, len(p.W)), B: make([]tensor.Vector, len(p.B))}
	for l := range p.W {
		c.W[l], c.B[l] = p.W[l].Clone(), p.B[l].Clone()
	}
	return c
}

// ParamSet registers every layer for the flat-vector optimizers.
func (p *Params) ParamSet() *nn.ParamSet {
	ps := &nn.ParamSet{}
	for l := range p.W {
		ps.AddMatrix(fmt.Sprintf("W%d", l), p.W[l])
		ps.AddVector(fmt.Sprintf("b%d", l), p.B[l])
	}
	return ps
}

// CostGrad evaluates the batch-mean cross-entropy with L2 penalty on x with
// one-hot targets y, accumulating the exact gradient into grad when
// non-nil. Plain sequential loops: the oracle for finite differences and
// the device implementation.
func CostGrad(cfg Config, p *Params, x, y *tensor.Matrix, grad *Params) float64 {
	if x.Cols != cfg.Sizes[0] {
		panic(fmt.Sprintf("mlp: CostGrad input width %d, want %d", x.Cols, cfg.Sizes[0]))
	}
	L := cfg.Layers()
	if y.Rows != x.Rows || y.Cols != cfg.Sizes[L] {
		panic(fmt.Sprintf("mlp: CostGrad targets %dx%d, want %dx%d", y.Rows, y.Cols, x.Rows, cfg.Sizes[L]))
	}
	m := x.Rows
	if m == 0 {
		panic("mlp: CostGrad on empty batch")
	}
	invM := 1 / float64(m)

	// Forward, keeping every activation.
	acts := make([]*tensor.Matrix, L)
	in := x
	for l := 0; l < L; l++ {
		out := tensor.NewMatrix(m, cfg.Sizes[l+1])
		for i := 0; i < m; i++ {
			xi, oi := in.RowView(i), out.RowView(i)
			for j := range oi {
				s := p.B[l][j]
				for k, xv := range xi {
					s += xv * p.W[l].At(k, j)
				}
				oi[j] = s
			}
			if l < L-1 {
				for j := range oi {
					oi[j] = nn.Sigmoid(oi[j])
				}
			} else {
				nn.SoftmaxRow(oi)
			}
		}
		acts[l] = out
		in = out
	}

	// Cross-entropy + L2.
	const eps = 1e-12
	cost := 0.0
	probs := acts[L-1]
	for i := 0; i < m; i++ {
		pi, yi := probs.RowView(i), y.RowView(i)
		for j, yv := range yi {
			if yv != 0 {
				cost -= yv * math.Log(math.Max(pi[j], eps))
			}
		}
	}
	cost *= invM
	for l := 0; l < L; l++ {
		cost += cfg.Lambda / 2 * p.W[l].SumSquares()
	}
	if grad == nil {
		return cost
	}

	// Backward.
	for l := 0; l < L; l++ {
		grad.W[l].Zero()
		grad.B[l].Zero()
	}
	delta := tensor.NewMatrix(m, cfg.Sizes[L])
	for i := 0; i < m; i++ {
		pi, yi, di := probs.RowView(i), y.RowView(i), delta.RowView(i)
		for j := range di {
			di[j] = (pi[j] - yi[j]) * invM
		}
	}
	for l := L - 1; l >= 0; l-- {
		in := x
		if l > 0 {
			in = acts[l-1]
		}
		for i := 0; i < m; i++ {
			xi, di := in.RowView(i), delta.RowView(i)
			for k, xv := range xi {
				if xv == 0 {
					continue
				}
				gw := grad.W[l].RowView(k)
				for j, dv := range di {
					gw[j] += xv * dv
				}
			}
			for j, dv := range di {
				grad.B[l][j] += dv
			}
		}
		if cfg.Lambda != 0 {
			for k := 0; k < p.W[l].Rows; k++ {
				w, g := p.W[l].RowView(k), grad.W[l].RowView(k)
				for j := range w {
					g[j] += cfg.Lambda * w[j]
				}
			}
		}
		if l > 0 {
			next := tensor.NewMatrix(m, cfg.Sizes[l])
			for i := 0; i < m; i++ {
				di, ni, ai := delta.RowView(i), next.RowView(i), acts[l-1].RowView(i)
				for k := range ni {
					s := 0.0
					wr := p.W[l].RowView(k)
					for j, dv := range di {
						s += dv * wr[j]
					}
					ni[k] = s * nn.SigmoidPrime(ai[k])
				}
			}
			delta = next
		}
	}
	return cost
}

// PredictProbs runs the forward pass on one example and returns the softmax
// class probabilities (length Sizes[last]). It is the scalar host reference
// the serving layer degrades to under overload and verifies the device path
// against.
func (p *Params) PredictProbs(cfg Config, x []float64) []float64 {
	L := cfg.Layers()
	in := append([]float64(nil), x...)
	for l := 0; l < L; l++ {
		out := make([]float64, cfg.Sizes[l+1])
		for j := range out {
			s := p.B[l][j]
			for k, xv := range in {
				s += xv * p.W[l].At(k, j)
			}
			out[j] = s
		}
		if l < L-1 {
			for j := range out {
				out[j] = nn.Sigmoid(out[j])
			}
		} else {
			nn.SoftmaxRow(out)
		}
		in = out
	}
	return in
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
