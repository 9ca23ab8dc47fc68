package rbm

import (
	"fmt"
	"io"
	"math"

	"phideep/internal/nn"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Params is the host-side parameter set of an RBM.
type Params struct {
	W *tensor.Matrix // Visible×Hidden
	B tensor.Vector  // visible bias b (length Visible)
	C tensor.Vector  // hidden bias c (length Hidden)
}

// NewParams returns the conventional initialization: N(0, 0.01²) weights
// and zero biases (Hinton's practical guide, the paper's [15]).
func NewParams(cfg Config, seed uint64) *Params {
	p := zeroParams(cfg)
	p.W.RandomizeNorm(rng.New(seed), 0.01)
	return p
}

func zeroParams(cfg Config) *Params {
	return &Params{
		W: tensor.NewMatrix(cfg.Visible, cfg.Hidden),
		B: tensor.NewVector(cfg.Visible),
		C: tensor.NewVector(cfg.Hidden),
	}
}

// Clone deep-copies the parameters.
func (p *Params) Clone() *Params {
	return &Params{W: p.W.Clone(), B: p.B.Clone(), C: p.C.Clone()}
}

// HiddenProb returns p(h_j = 1 | v) for every j (Eq. 9).
func (p *Params) HiddenProb(v tensor.Vector) tensor.Vector {
	h := p.W.Cols
	out := tensor.NewVector(h)
	for j := 0; j < h; j++ {
		s := p.C[j]
		for i, vi := range v {
			s += vi * p.W.At(i, j)
		}
		out[j] = nn.Sigmoid(s)
	}
	return out
}

// VisibleProb returns p(v_i = 1 | h) for every i (Eq. 8).
func (p *Params) VisibleProb(h tensor.Vector) tensor.Vector {
	v := p.W.Rows
	out := tensor.NewVector(v)
	for i := 0; i < v; i++ {
		s := p.B[i]
		row := p.W.RowView(i)
		for j, hj := range h {
			s += hj * row[j]
		}
		out[i] = nn.Sigmoid(s)
	}
	return out
}

// Energy returns E(v, h) = −b'v − c'h − h'Wv (Eq. 7).
func (p *Params) Energy(v, h tensor.Vector) float64 {
	e := -p.B.Dot(v) - p.C.Dot(h)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := p.W.RowView(i)
		for j, hj := range h {
			e -= hj * vi * row[j]
		}
	}
	return e
}

// FreeEnergy returns F(v) = −b'v − Σ_j log(1 + e^{c_j + (vW)_j}), with
// e^{−F(v)} ∝ p(v). Used as the training-progress diagnostic.
func (p *Params) FreeEnergy(v tensor.Vector) float64 {
	f := -p.B.Dot(v)
	for j := 0; j < p.W.Cols; j++ {
		s := p.C[j]
		for i, vi := range v {
			s += vi * p.W.At(i, j)
		}
		// log(1+e^s), stably.
		if s > 30 {
			f -= s
		} else {
			f -= math.Log1p(math.Exp(s))
		}
	}
	return f
}

// LogLikelihood returns the exact average log p(v) over the rows of x by
// enumerating the 2^Hidden hidden states for the free energy and the
// 2^Visible visible states for the partition function. It panics when
// Visible > 20 (enumeration would be infeasible); it exists for the tiny
// machines of the test suite.
func (p *Params) LogLikelihood(x *tensor.Matrix) float64 {
	nv := p.W.Rows
	if nv > 20 {
		panic(fmt.Sprintf("rbm: LogLikelihood enumeration over %d visible units is infeasible", nv))
	}
	// log Z = log Σ_v e^{−F(v)} via log-sum-exp.
	maxNegF := math.Inf(-1)
	negFs := make([]float64, 1<<nv)
	v := tensor.NewVector(nv)
	for bits := 0; bits < 1<<nv; bits++ {
		for i := 0; i < nv; i++ {
			v[i] = float64((bits >> i) & 1)
		}
		nf := -p.FreeEnergy(v)
		negFs[bits] = nf
		if nf > maxNegF {
			maxNegF = nf
		}
	}
	sum := 0.0
	for _, nf := range negFs {
		sum += math.Exp(nf - maxNegF)
	}
	logZ := maxNegF + math.Log(sum)

	ll := 0.0
	for r := 0; r < x.Rows; r++ {
		ll += -p.FreeEnergy(tensor.Vector(x.RowView(r))) - logZ
	}
	return ll / float64(x.Rows)
}

// Grad holds an RBM gradient in host form.
type Grad struct {
	W *tensor.Matrix
	B tensor.Vector
	C tensor.Vector
}

// ZeroGrad returns a zeroed gradient holder shaped like cfg.
func ZeroGrad(cfg Config) *Grad {
	return &Grad{
		W: tensor.NewMatrix(cfg.Visible, cfg.Hidden),
		B: tensor.NewVector(cfg.Visible),
		C: tensor.NewVector(cfg.Hidden),
	}
}

// VisibleMean returns the Gaussian-visible reconstruction mean b + hWᵀ
// (the linear counterpart of VisibleProb).
func (p *Params) VisibleMean(h tensor.Vector) tensor.Vector {
	v := p.W.Rows
	out := tensor.NewVector(v)
	for i := 0; i < v; i++ {
		s := p.B[i]
		row := p.W.RowView(i)
		for j, hj := range h {
			s += hj * row[j]
		}
		out[i] = s
	}
	return out
}

// FreeEnergyGaussian returns the Gaussian-visible free energy
// F(v) = ½Σ(v_i−b_i)² − Σ_j log(1 + e^{c_j + (vW)_j}).
func (p *Params) FreeEnergyGaussian(v tensor.Vector) float64 {
	f := 0.0
	for i, vi := range v {
		d := vi - p.B[i]
		f += 0.5 * d * d
	}
	for j := 0; j < p.W.Cols; j++ {
		s := p.C[j]
		for i, vi := range v {
			s += vi * p.W.At(i, j)
		}
		if s > 30 {
			f -= s
		} else {
			f -= math.Log1p(math.Exp(s))
		}
	}
	return f
}

// CDGradMeanField computes the deterministic (no-sampling) CD-1 gradient on
// the batch x with plain loops: positive statistics from ph0 = p(h|v0),
// reconstruction pv1 = p(v|ph0), negative statistics from ph1 = p(h|pv1),
// all averaged over the batch. It is the oracle the device Model must match
// exactly when both sampling flags are off. For Gaussian-visible machines
// the reconstruction uses VisibleMean.
func CDGradMeanField(cfg Config, p *Params, x *tensor.Matrix, g *Grad) {
	m := x.Rows
	if m == 0 {
		panic("rbm: CDGradMeanField on empty batch")
	}
	g.W.Zero()
	g.B.Zero()
	g.C.Zero()
	invM := 1 / float64(m)
	for r := 0; r < m; r++ {
		v0 := tensor.Vector(x.RowView(r))
		ph0 := p.HiddenProb(v0)
		var pv1 tensor.Vector
		if cfg.GaussianVisible {
			pv1 = p.VisibleMean(ph0)
		} else {
			pv1 = p.VisibleProb(ph0)
		}
		ph1 := p.HiddenProb(pv1)
		for i := 0; i < cfg.Visible; i++ {
			gw := g.W.RowView(i)
			for j := 0; j < cfg.Hidden; j++ {
				gw[j] += (v0[i]*ph0[j] - pv1[i]*ph1[j]) * invM
			}
			g.B[i] += (v0[i] - pv1[i]) * invM
		}
		for j := 0; j < cfg.Hidden; j++ {
			g.C[j] += (ph0[j] - ph1[j]) * invM
		}
	}
}

// ExactGrad computes the true log-likelihood gradient ∂log p(x)/∂θ by
// enumerating the model expectation (Eqs. 10–12 with the ⟨·⟩_model term
// exact). Only feasible for tiny machines; used to verify that CD-1 is a
// descent-aligned approximation.
func ExactGrad(cfg Config, p *Params, x *tensor.Matrix, g *Grad) {
	nv, nh := cfg.Visible, cfg.Hidden
	if nv > 16 {
		panic(fmt.Sprintf("rbm: ExactGrad enumeration over %d visible units is infeasible", nv))
	}
	g.W.Zero()
	g.B.Zero()
	g.C.Zero()
	m := x.Rows
	invM := 1 / float64(m)

	// Data expectation: ⟨v_i h_j⟩_data with h marginalized to p(h|v).
	for r := 0; r < m; r++ {
		v0 := tensor.Vector(x.RowView(r))
		ph := p.HiddenProb(v0)
		for i := 0; i < nv; i++ {
			gw := g.W.RowView(i)
			for j := 0; j < nh; j++ {
				gw[j] += v0[i] * ph[j] * invM
			}
			g.B[i] += v0[i] * invM
		}
		for j := 0; j < nh; j++ {
			g.C[j] += ph[j] * invM
		}
	}

	// Model expectation via enumeration of v weighted by p(v).
	v := tensor.NewVector(nv)
	weights := make([]float64, 1<<nv)
	maxNegF := math.Inf(-1)
	for bits := 0; bits < 1<<nv; bits++ {
		for i := 0; i < nv; i++ {
			v[i] = float64((bits >> i) & 1)
		}
		nf := -p.FreeEnergy(v)
		weights[bits] = nf
		if nf > maxNegF {
			maxNegF = nf
		}
	}
	z := 0.0
	for bits := range weights {
		weights[bits] = math.Exp(weights[bits] - maxNegF)
		z += weights[bits]
	}
	for bits := 0; bits < 1<<nv; bits++ {
		pw := weights[bits] / z
		for i := 0; i < nv; i++ {
			v[i] = float64((bits >> i) & 1)
		}
		ph := p.HiddenProb(v)
		for i := 0; i < nv; i++ {
			gw := g.W.RowView(i)
			for j := 0; j < nh; j++ {
				gw[j] -= pw * v[i] * ph[j]
			}
			g.B[i] -= pw * v[i]
		}
		for j := 0; j < nh; j++ {
			g.C[j] -= pw * ph[j]
		}
	}
}

// Encode maps one example x (length Visible) to the hidden probabilities
// y (length Hidden): y = σ(x·W + c) — the representation a trained RBM
// layer feeds to the next RBM in a Deep Belief Network.
func (p *Params) Encode(x, y []float64) {
	for j := range y {
		s := p.C[j]
		for k, xv := range x {
			s += xv * p.W.At(k, j)
		}
		y[j] = nn.Sigmoid(s)
	}
}

// Reconstruct maps one example x (length Visible) through the mean-field
// round trip to its reconstruction z (length Visible): hidden probabilities
// σ(x·W + c), then σ(h·Wᵀ + b) for binary visibles or the linear mean
// b + hWᵀ when gaussian is set (Config.GaussianVisible). It is the scalar
// host reference the serving layer degrades to under overload.
func (p *Params) Reconstruct(x, z []float64, gaussian bool) {
	y := make([]float64, p.W.Cols)
	p.Encode(x, y)
	for i := range z {
		s := p.B[i]
		row := p.W.RowView(i)
		for j, yj := range y {
			s += yj * row[j]
		}
		if gaussian {
			z[i] = s
		} else {
			z[i] = nn.Sigmoid(s)
		}
	}
}

// ParamSet registers the parameters in canonical order (W, b, c) for the
// flat-vector optimizers and for serialization.
func (p *Params) ParamSet() *nn.ParamSet {
	ps := &nn.ParamSet{}
	ps.AddMatrix("W", p.W)
	ps.AddVector("b", p.B)
	ps.AddVector("c", p.C)
	return ps
}

// Save writes the parameters to w in the phideep checkpoint format.
func (p *Params) Save(w io.Writer) error { return nn.SaveParamSet(w, p.ParamSet()) }

// Load reads parameters from r into p, validating size and checksum.
func (p *Params) Load(r io.Reader) error { return nn.LoadParamSet(r, p.ParamSet()) }
