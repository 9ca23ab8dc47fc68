package autoencoder

import (
	"fmt"
	"io"
	"math"

	"phideep/internal/nn"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Params is the host-side parameter set of a Sparse Autoencoder. It is the
// representation used for initialization, for the reference cost/gradient
// (gradient checks), and by the batch optimizers in internal/opt.
type Params struct {
	W1 *tensor.Matrix // Visible×Hidden
	W2 *tensor.Matrix // Hidden×Visible
	B1 tensor.Vector  // Hidden
	B2 tensor.Vector  // Visible
}

// NewParams returns parameters with the conventional symmetric-uniform
// weight initialization and zero biases.
func NewParams(cfg Config, seed uint64) *Params {
	r := rng.New(seed)
	p := zeroParams(cfg)
	nn.InitMatrix(p.W1, r)
	nn.InitMatrix(p.W2, r)
	return p
}

func zeroParams(cfg Config) *Params {
	return &Params{
		W1: tensor.NewMatrix(cfg.Visible, cfg.Hidden),
		W2: tensor.NewMatrix(cfg.Hidden, cfg.Visible),
		B1: tensor.NewVector(cfg.Hidden),
		B2: tensor.NewVector(cfg.Visible),
	}
}

// Clone deep-copies the parameters.
func (p *Params) Clone() *Params {
	return &Params{W1: p.W1.Clone(), W2: p.W2.Clone(), B1: p.B1.Clone(), B2: p.B2.Clone()}
}

// ParamSet registers the parameters in canonical order (W1, B1, W2, B2)
// for the flat-vector optimizers.
func (p *Params) ParamSet() *nn.ParamSet {
	ps := &nn.ParamSet{}
	ps.AddMatrix("W1", p.W1)
	ps.AddVector("b1", p.B1)
	ps.AddMatrix("W2", p.W2)
	ps.AddVector("b2", p.B2)
	return ps
}

// CostGrad evaluates the Eq. 5 objective on X (one example per row) and,
// when grad is non-nil, accumulates the exact gradient into it. This is the
// straightforward sequential implementation — the semantics the optimized
// device path must match, and the oracle for the finite-difference tests.
func CostGrad(cfg Config, p *Params, x *tensor.Matrix, grad *Params) float64 {
	if x.Cols != cfg.Visible {
		panic(fmt.Sprintf("autoencoder: CostGrad input width %d, want %d", x.Cols, cfg.Visible))
	}
	m := x.Rows
	if m == 0 {
		panic("autoencoder: CostGrad on empty batch")
	}
	v, h := cfg.Visible, cfg.Hidden
	invM := 1 / float64(m)

	// Forward. The decoder weight for visible j and hidden k is W2[k,j],
	// or W1[j,k] with tied weights.
	decode := func(j, k int) float64 {
		if cfg.Tied {
			return p.W1.At(j, k)
		}
		return p.W2.At(k, j)
	}
	y := tensor.NewMatrix(m, h)
	z := tensor.NewMatrix(m, v)
	for i := 0; i < m; i++ {
		xi, yi := x.RowView(i), y.RowView(i)
		for j := 0; j < h; j++ {
			s := p.B1[j]
			for k := 0; k < v; k++ {
				s += xi[k] * p.W1.At(k, j)
			}
			yi[j] = nn.Sigmoid(s)
		}
		zi := z.RowView(i)
		for j := 0; j < v; j++ {
			s := p.B2[j]
			for k := 0; k < h; k++ {
				s += yi[k] * decode(j, k)
			}
			zi[j] = nn.Sigmoid(s)
		}
	}

	// Cost terms.
	recon := 0.0
	for i := 0; i < m; i++ {
		xi, zi := x.RowView(i), z.RowView(i)
		for j := range zi {
			d := zi[j] - xi[j]
			recon += d * d
		}
	}
	recon *= invM / 2
	reg := cfg.Lambda / 2 * p.W1.SumSquares()
	if !cfg.Tied {
		reg += cfg.Lambda / 2 * p.W2.SumSquares()
	}

	rhoHat := y.ColMeans()
	sparse := 0.0
	const eps = 1e-12
	if cfg.Beta > 0 {
		for _, r := range rhoHat {
			r = math.Min(math.Max(r, eps), 1-eps)
			sparse += cfg.Rho*math.Log(cfg.Rho/r) + (1-cfg.Rho)*math.Log((1-cfg.Rho)/(1-r))
		}
		sparse *= cfg.Beta
	}
	cost := recon + reg + sparse
	if grad == nil {
		return cost
	}

	// Backward.
	grad.W1.Zero()
	grad.W2.Zero()
	grad.B1.Zero()
	grad.B2.Zero()
	coeff := tensor.NewVector(h)
	if cfg.Beta > 0 {
		for j, r := range rhoHat {
			r = math.Min(math.Max(r, eps), 1-eps)
			coeff[j] = cfg.Beta * invM * (-cfg.Rho/r + (1-cfg.Rho)/(1-r))
		}
	}
	d3 := tensor.NewVector(v)
	d2 := tensor.NewVector(h)
	for i := 0; i < m; i++ {
		xi, yi, zi := x.RowView(i), y.RowView(i), z.RowView(i)
		for j := 0; j < v; j++ {
			d3[j] = (zi[j] - xi[j]) * nn.SigmoidPrime(zi[j]) * invM
		}
		for k := 0; k < h; k++ {
			s := 0.0
			for j := 0; j < v; j++ {
				s += d3[j] * decode(j, k)
			}
			d2[k] = (s + coeff[k]) * nn.SigmoidPrime(yi[k])
		}
		if cfg.Tied {
			// Decoder contribution accumulates into W1.
			for j := 0; j < v; j++ {
				gw1 := grad.W1.RowView(j)
				dj := d3[j]
				for k := 0; k < h; k++ {
					gw1[k] += dj * yi[k]
				}
			}
		} else {
			for k := 0; k < h; k++ {
				gw2 := grad.W2.RowView(k)
				yk := yi[k]
				for j := 0; j < v; j++ {
					gw2[j] += yk * d3[j]
				}
			}
		}
		for j := 0; j < v; j++ {
			grad.B2[j] += d3[j]
		}
		for k := 0; k < v; k++ {
			gw1 := grad.W1.RowView(k)
			xk := xi[k]
			for j := 0; j < h; j++ {
				gw1[j] += xk * d2[j]
			}
		}
		for j := 0; j < h; j++ {
			grad.B1[j] += d2[j]
		}
	}
	if cfg.Lambda != 0 {
		for i := 0; i < v; i++ {
			w, g := p.W1.RowView(i), grad.W1.RowView(i)
			for j := range w {
				g[j] += cfg.Lambda * w[j]
			}
		}
		if !cfg.Tied {
			for i := 0; i < h; i++ {
				w, g := p.W2.RowView(i), grad.W2.RowView(i)
				for j := range w {
					g[j] += cfg.Lambda * w[j]
				}
			}
		}
	}
	return cost
}

// ZeroGrad returns a zeroed gradient holder shaped like cfg.
func ZeroGrad(cfg Config) *Params { return zeroParams(cfg) }

// Encode maps one example x (length Visible) to its hidden code y (length
// Hidden) with the trained encoder: y = σ(x·W1 + b1). This is the Fig. 1
// hand-off a trained layer applies when feeding the next Autoencoder.
func (p *Params) Encode(x, y []float64) {
	for j := range y {
		s := p.B1[j]
		for k, xv := range x {
			s += xv * p.W1.At(k, j)
		}
		y[j] = nn.Sigmoid(s)
	}
}

// Reconstruct maps one example x (length Visible) through the full network
// to its reconstruction z (length Visible): z = σ(σ(x·W1+b1)·W2 + b2),
// honoring tied weights. It is the scalar host reference the serving layer
// degrades to under overload and verifies the device path against. tied
// selects the weight-tying variant (Config.Tied).
func (p *Params) Reconstruct(x, z []float64, tied bool) {
	y := make([]float64, p.W1.Cols)
	p.Encode(x, y)
	for j := range z {
		s := p.B2[j]
		for k, yv := range y {
			if tied {
				s += yv * p.W1.At(j, k)
			} else {
				s += yv * p.W2.At(k, j)
			}
		}
		z[j] = nn.Sigmoid(s)
	}
}

// Objective adapts the reference cost/gradient on the fixed dataset x to
// the flat-vector form the batch optimizers (CG, L-BFGS) consume. theta and
// the returned objective share p's storage: evaluating the objective writes
// theta back into p.
func Objective(cfg Config, p *Params, x *tensor.Matrix) (obj func(theta, grad tensor.Vector) float64, theta tensor.Vector) {
	ps := p.ParamSet()
	theta = ps.Flatten(nil)
	grad := ZeroGrad(cfg)
	gs := grad.ParamSet()
	obj = func(th, g tensor.Vector) float64 {
		ps.Unflatten(th)
		if g == nil {
			return CostGrad(cfg, p, x, nil)
		}
		c := CostGrad(cfg, p, x, grad)
		gs.Flatten(g)
		return c
	}
	return obj, theta
}

// Save writes the parameters to w in the phideep checkpoint format.
func (p *Params) Save(w io.Writer) error { return nn.SaveParamSet(w, p.ParamSet()) }

// Load reads parameters from r into p, validating size and checksum.
func (p *Params) Load(r io.Reader) error { return nn.LoadParamSet(r, p.ParamSet()) }
