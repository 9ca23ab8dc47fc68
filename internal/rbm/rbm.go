// Package rbm implements the paper's Restricted Boltzmann Machine: a
// two-layer binary stochastic network with energy E(v,h) = −b'v − c'h −
// h'Wv (Eq. 7), trained by one-step Contrastive Divergence (Eqs. 10–13).
//
// Model is the device-resident implementation. Its gradient step schedules
// independent matrix operations concurrently following the dependency graph
// of the paper's Fig. 6 (the data-term statistics overlap with the
// reconstruction chain, and the three parameter gradients overlap with each
// other) when the context's AutoConcurrent flag is set. reference.go holds
// the host-only oracle: brute-force conditionals, free energy and exact
// log-likelihood for tiny machines.
package rbm

import (
	"fmt"
	"io"

	"phideep/internal/blas"
	"phideep/internal/device"
	"phideep/internal/nn"
)

// Config holds the RBM geometry and CD options.
type Config struct {
	Visible int
	Hidden  int
	// SampleHidden draws binary hidden states for the positive phase
	// (true in the paper's Gibbs chain). Disabling it yields the
	// deterministic mean-field CD used by equivalence tests.
	SampleHidden bool
	// SampleVisible draws binary reconstructions in the negative phase.
	// Hinton's practical guide (the paper's [15]) recommends using the
	// probabilities instead, which is the default.
	SampleVisible bool
	// CDSteps is the number of Gibbs steps per gradient (CD-k); the paper
	// runs CD-1.
	CDSteps int
	// GaussianVisible switches the visible layer to linear units with unit
	// Gaussian noise (a Gaussian–Bernoulli RBM), the standard choice for
	// real-valued data like the natural-image patches of the paper's
	// dataset. The reconstruction is the mean b + hWᵀ (no sigmoid), and
	// SampleVisible adds N(0,1) noise instead of binarizing.
	GaussianVisible bool
	// Momentum, when non-zero, applies the classical-momentum update of
	// Hinton's practical guide instead of plain gradient ascent.
	Momentum float64
	// Lambda is the L2 weight-decay coefficient ("weight cost" in the
	// practical guide): the ascent direction becomes ∇ − λW.
	Lambda float64
	// Persistent switches the negative phase to Persistent Contrastive
	// Divergence (PCD, Tieleman 2008): the Gibbs chain continues from the
	// previous step's fantasy particles instead of restarting at the data,
	// giving a better model-expectation estimate for the same CDSteps.
	Persistent bool
	// SparsityTarget/SparsityCost regularize the hidden units toward a
	// target mean activation q (practical guide §11): the hidden-bias
	// gradient gains SparsityCost·(q − q̂_j), with q̂ the batch mean of the
	// positive-phase probabilities.
	SparsityTarget float64
	SparsityCost   float64
	// Batch is the minibatch size the device-resident model is built for.
	// Build requires it; the deprecated four-argument constructor fills it
	// from its positional batch argument.
	Batch int
	// Seed initializes the parameters (and, via the context, the sampling
	// streams). Zero is a valid seed.
	Seed uint64
}

// Validate checks the configuration, defaulting CDSteps to 1.
func (c *Config) Validate() error {
	if c.Visible <= 0 || c.Hidden <= 0 {
		return fmt.Errorf("rbm: non-positive layer size %d×%d", c.Visible, c.Hidden)
	}
	if c.CDSteps < 0 {
		return fmt.Errorf("rbm: negative CD steps %d", c.CDSteps)
	}
	if c.CDSteps == 0 {
		c.CDSteps = 1
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("rbm: momentum %g outside [0,1)", c.Momentum)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("rbm: negative weight decay %g", c.Lambda)
	}
	if c.SparsityCost < 0 {
		return fmt.Errorf("rbm: negative sparsity cost %g", c.SparsityCost)
	}
	if c.SparsityCost > 0 && (c.SparsityTarget <= 0 || c.SparsityTarget >= 1) {
		return fmt.Errorf("rbm: sparsity target %g outside (0,1)", c.SparsityTarget)
	}
	if c.Batch < 0 {
		return fmt.Errorf("rbm: negative batch size %d", c.Batch)
	}
	return nil
}

// Model is an RBM resident on a device with persistent parameter, gradient
// and Gibbs-chain workspace buffers.
type Model struct {
	Cfg   Config
	Ctx   *blas.Context
	Batch int

	// Parameters: p(h=1|v) = σ(v·W + c), p(v=1|h) = σ(h·Wᵀ + b).
	W *device.Buffer // Visible×Hidden
	B *device.Buffer // 1×Visible (visible bias b)
	C *device.Buffer // 1×Hidden (hidden bias c)

	// Gradients (log-likelihood ascent direction).
	GW *device.Buffer
	GB *device.Buffer
	GC *device.Buffer

	// Gibbs-chain workspace, Batch×…
	ph0, h0, ph1 *device.Buffer // hidden probabilities / samples
	pv1, v1      *device.Buffer // visible reconstruction
	dv           *device.Buffer // V0 − V1
	dh           *device.Buffer // PH0 − PH1

	// Velocity buffers (Momentum > 0 only).
	vW, vB, vC *device.Buffer
	// rowH is a 1×Hidden reduction scratch for the sparsity regularizer.
	rowH *device.Buffer
	// pchain holds the persistent fantasy particles (PCD only).
	pchain      *device.Buffer
	chainSeeded bool

	// inferOnly marks a forward-only model built by NewInference.
	inferOnly bool
	// packs holds the pack-once forms of W an inference model's GEMMs
	// read; nil on a training model.
	packs *blas.Packs

	mem device.Owner // every buffer above
}

// Build allocates a model for cfg.Batch examples and uploads the reference
// initialization (small Gaussian weights, zero biases) from cfg.Seed.
func Build(ctx *blas.Context, cfg Config) (*Model, error) {
	return build(ctx, cfg, cfg.Batch, false, nil)
}

// NewInference allocates a forward-only model for up to batch examples:
// parameters plus the two probability buffers, no gradient, velocity or
// chain workspace. p, when non-nil, provides the weights; nil initializes
// from cfg.Seed. Only Encode, Reconstruct, Upload and Download work on an
// inference model — the training entry points panic. Inference is
// deterministic mean-field (no sampling), matching Params.Encode exactly.
func NewInference(ctx *blas.Context, cfg Config, batch int, p *Params) (*Model, error) {
	return build(ctx, cfg, batch, true, p)
}

// build allocates a model for batch examples — forward-only when
// inferOnly — and uploads p, or the initialization from cfg.Seed when p is
// nil. On failure nothing stays allocated.
func build(ctx *blas.Context, cfg Config, batch int, inferOnly bool, p *Params) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if batch <= 0 {
		return nil, fmt.Errorf("rbm: non-positive batch size %d", batch)
	}
	m := &Model{Cfg: cfg, Ctx: ctx, Batch: batch, inferOnly: inferOnly, mem: device.Owner{Dev: ctx.Dev}}
	if inferOnly {
		m.packs = new(blas.Packs)
	}
	mem := &m.mem
	v, h := cfg.Visible, cfg.Hidden
	m.W, m.B, m.C = mem.Alloc(v, h), mem.Alloc(1, v), mem.Alloc(1, h)
	m.ph0, m.pv1 = mem.Alloc(batch, h), mem.Alloc(batch, v)
	if !inferOnly {
		m.GW, m.GB, m.GC = mem.Alloc(v, h), mem.Alloc(1, v), mem.Alloc(1, h)
		m.h0, m.ph1 = mem.Alloc(batch, h), mem.Alloc(batch, h)
		m.v1 = mem.Alloc(batch, v)
		m.dv, m.dh = mem.Alloc(batch, v), mem.Alloc(batch, h)
		if cfg.Momentum > 0 {
			m.vW, m.vB, m.vC = mem.Alloc(v, h), mem.Alloc(1, v), mem.Alloc(1, h)
		}
		if cfg.SparsityCost > 0 {
			m.rowH = mem.Alloc(1, h)
		}
		if cfg.Persistent {
			m.pchain = mem.Alloc(batch, v)
		}
	}
	if err := mem.Err(); err != nil {
		mem.Free()
		return nil, err
	}
	if p == nil {
		p = NewParams(cfg, cfg.Seed)
	}
	m.Upload(p)
	return m, nil
}

// Free releases every device buffer of the model.
func (m *Model) Free() { m.mem.Free() }

// params lists the device parameters in Params.ParamSet order.
func (m *Model) params() []*device.Buffer { return []*device.Buffer{m.W, m.B, m.C} }

// Upload transfers host parameters to the device and drops the packed
// weights of an inference model.
func (m *Model) Upload(p *Params) {
	p.ParamSet().CopyIn(m.Ctx.Dev, m.params())
	m.packs.Reset()
}

// Download copies the device parameters back to the host.
func (m *Model) Download() *Params {
	p := zeroParams(m.Cfg)
	p.ParamSet().CopyOut(m.Ctx.Dev, m.params())
	return p
}

// SaveState writes the model's resumable training state to w: the
// device-resident parameters (downloaded over the simulated PCIe link, so
// checkpointing has a visible transfer cost) followed by the context's
// sampling-RNG state, so a restored model continues the exact Gibbs
// stream. Optimizer extras (momentum velocity, PCD fantasy particles) are
// not captured; exact resume holds for the vanilla CD configuration.
func (m *Model) SaveState(w io.Writer) error {
	return nn.SaveState(w, m.Download().ParamSet(), m.Ctx.RNG)
}

// RestoreState reads state written by SaveState, uploads the parameters to
// the device and restores the sampling-RNG stream.
func (m *Model) RestoreState(r io.Reader) error {
	p := zeroParams(m.Cfg)
	if err := nn.LoadState(r, p.ParamSet(), m.Ctx.RNG); err != nil {
		return err
	}
	m.Upload(p)
	return nil
}

// hiddenFrom computes dst = σ(v·W + c) (Eq. 9 / Eq. 15 in batched vector
// form). An inference model reads W from its pack-once form, here and in
// visibleFrom.
func (m *Model) hiddenFrom(dst, v *device.Buffer) {
	ctx := m.Ctx
	// One fused region per conditional at the Improved level: GEMM with
	// bias and sigmoid epilogue (§IV.B.2 loop combining).
	ctx.MaybeFused(func() {
		ctx.GemmPacked(false, false, 1, v, m.W, m.packs.B(m.W, false), 0, dst)
		ctx.AddBiasRow(dst, m.C)
		ctx.Sigmoid(dst, dst)
	})
}

// visibleFrom computes the visible reconstruction: σ(h·Wᵀ + b) for binary
// units (Eq. 8 / Eq. 14), or the linear mean h·Wᵀ + b for Gaussian units.
func (m *Model) visibleFrom(dst, h *device.Buffer) {
	ctx := m.Ctx
	ctx.MaybeFused(func() {
		ctx.GemmPacked(false, true, 1, h, m.W, m.packs.B(m.W, true), 0, dst)
		ctx.AddBiasRow(dst, m.B)
		if !m.Cfg.GaussianVisible {
			ctx.Sigmoid(dst, dst)
		}
	})
}

// Encode computes the deterministic hidden representation σ(x·W + c) for
// 1..Batch examples (one per row of x) and returns a view of the result,
// x.Rows×Hidden. The returned buffer is owned by the model and overwritten
// by the next call; CopyOut it (or read it) before encoding again. It is
// bit-identical to Params.Encode at the Baseline level.
func (m *Model) Encode(x *device.Buffer) *device.Buffer {
	n := m.checkInfer(x)
	y := m.ph0.Head(n)
	m.hiddenFrom(y, x)
	return y
}

// Reconstruct maps 1..Batch examples through the mean-field round trip:
// hidden probabilities from Encode, then the visible reconstruction
// σ(h·Wᵀ + b) (or the linear Gaussian mean). Returns an x.Rows×Visible
// view owned by the model, overwritten by the next call.
func (m *Model) Reconstruct(x *device.Buffer) *device.Buffer {
	y := m.Encode(x)
	z := m.pv1.Head(y.Rows)
	m.visibleFrom(z, y)
	return z
}

// checkInfer validates a forward-only input and returns its row count.
func (m *Model) checkInfer(x *device.Buffer) int {
	if x.Rows < 1 || x.Rows > m.Batch || x.Cols != m.Cfg.Visible {
		panic(fmt.Sprintf("rbm: inference input %dx%d, want 1..%d×%d", x.Rows, x.Cols, m.Batch, m.Cfg.Visible))
	}
	return x.Rows
}

// mustTrain panics when a training entry point is hit on a forward-only
// model, whose gradient and chain workspace was never allocated.
func (m *Model) mustTrain(op string) {
	if m.inferOnly {
		panic("rbm: " + op + " on an inference-only model (built by NewInference)")
	}
}

// Gradient runs the CD-k chain from the data batch v0 (Batch×Visible) and
// leaves the averaged log-likelihood gradient in GW/GB/GC. The schedule
// follows Fig. 6: once the positive hidden probabilities exist, the data
// statistics V0ᵀ·PH0 run concurrently with the reconstruction chain, and
// the final Vb/Vc/Vw reductions run concurrently with each other.
func (m *Model) Gradient(v0 *device.Buffer) {
	m.mustTrain("Gradient")
	m.checkInput(v0)
	ctx := m.Ctx

	// Positive phase.
	m.hiddenFrom(m.ph0, v0)
	hForChain := m.ph0
	if m.Cfg.SampleHidden {
		ctx.SampleBernoulli(m.h0, m.ph0)
		hForChain = m.h0
	}

	// PCD: the chain starts from the stored fantasy particles (seeded
	// from the first data batch) rather than from the data.
	if m.Cfg.Persistent {
		if !m.chainSeeded {
			ctx.Copy(m.pchain, v0)
			m.chainSeeded = true
		}
		m.hiddenFrom(m.ph1, m.pchain)
		hForChain = m.ph1
		if m.Cfg.SampleHidden {
			ctx.SampleBernoulli(m.h0, m.ph1)
			hForChain = m.h0
		}
	}

	// Data term of Eq. 10 concurrent with the first reconstruction GEMM.
	ctx.MaybeConcurrent(func() {
		ctx.Gemm(true, false, 1, v0, m.ph0, 0, m.GW)
		ctx.Gemm(false, true, 1, hForChain, m.W, 0, m.pv1)
	})
	ctx.MaybeFused(func() {
		ctx.AddBiasRow(m.pv1, m.B)
		if !m.Cfg.GaussianVisible {
			ctx.Sigmoid(m.pv1, m.pv1)
		}
	})
	vNeg := m.pv1
	if m.Cfg.SampleVisible {
		m.sampleVisible()
		vNeg = m.v1
	}

	// Additional Gibbs steps for CD-k (k > 1).
	for step := 1; step < m.Cfg.CDSteps; step++ {
		m.hiddenFrom(m.ph1, vNeg)
		hNext := m.ph1
		if m.Cfg.SampleHidden {
			ctx.SampleBernoulli(m.h0, m.ph1)
			hNext = m.h0
		}
		m.visibleFrom(m.pv1, hNext)
		vNeg = m.pv1
		if m.Cfg.SampleVisible {
			m.sampleVisible()
			vNeg = m.v1
		}
	}

	// PCD: persist the fantasy particles for the next step.
	if m.Cfg.Persistent {
		ctx.Copy(m.pchain, vNeg)
	}

	// Final hidden probabilities of the chain (always probabilities, per
	// the practical guide).
	m.hiddenFrom(m.ph1, vNeg)

	// Negative statistics and the elementwise differences, mutually
	// independent (the V2/H2 fan-out of Fig. 6).
	ctx.MaybeConcurrent(func() {
		ctx.Gemm(true, false, -1, vNeg, m.ph1, 1, m.GW)
		ctx.Sub(m.dv, v0, vNeg)
		ctx.Sub(m.dh, m.ph0, m.ph1)
	})

	// Vb, Vc (and the Vw scaling) concurrently — the last level of Fig. 6.
	ctx.MaybeConcurrent(func() {
		ctx.ColSums(m.dv, m.GB)
		ctx.ColSums(m.dh, m.GC)
	})
	invM := 1 / float64(m.Batch)
	ctx.MaybeFused(func() {
		ctx.Scale(invM, m.GW)
		ctx.Scale(invM, m.GB)
		ctx.Scale(invM, m.GC)
		if m.Cfg.Lambda != 0 {
			// Weight decay: ascend ∇ − λW.
			ctx.Axpy(-m.Cfg.Lambda, m.W, m.GW)
		}
	})
	if m.Cfg.SparsityCost > 0 {
		m.addSparsityRegularizer()
	}
}

// addSparsityRegularizer nudges the hidden biases toward the target mean
// activation: GC[j] += cost·(q − q̂_j), with q̂ reduced from the
// positive-phase probabilities on the device and the tiny (length-Hidden)
// correction applied on the host side of the gradient buffer.
func (m *Model) addSparsityRegularizer() {
	ctx := m.Ctx
	ctx.ColSums(m.ph0, m.rowH)
	if !ctx.Dev.Numeric {
		return
	}
	invM := 1 / float64(m.Batch)
	gc := m.GC.Mat.RowView(0)
	sums := m.rowH.Mat.RowView(0)
	for j := range gc {
		qHat := sums[j] * invM
		gc[j] += m.Cfg.SparsityCost * (m.Cfg.SparsityTarget - qHat)
	}
}

// sampleVisible draws v1 from the reconstruction distribution: Bernoulli
// for binary units, mean + N(0,1) for Gaussian units.
func (m *Model) sampleVisible() {
	ctx := m.Ctx
	if m.Cfg.GaussianVisible {
		ctx.AddGaussianNoise(m.v1, m.pv1, 1)
		return
	}
	ctx.SampleBernoulli(m.v1, m.pv1)
}

// ApplyUpdate ascends the log likelihood: θ ← θ + lr·∇θ (Eq. 13), with
// classical momentum when Cfg.Momentum > 0.
func (m *Model) ApplyUpdate(lr float64) {
	m.mustTrain("ApplyUpdate")
	ctx := m.Ctx
	if m.Cfg.Momentum == 0 {
		ctx.MaybeFused(func() {
			ctx.Axpy(lr, m.GW, m.W)
			ctx.Axpy(lr, m.GB, m.B)
			ctx.Axpy(lr, m.GC, m.C)
		})
		return
	}
	mu := m.Cfg.Momentum
	ctx.MaybeFused(func() {
		for _, pv := range []struct{ v, g, p *device.Buffer }{
			{m.vW, m.GW, m.W}, {m.vB, m.GB, m.B}, {m.vC, m.GC, m.C},
		} {
			ctx.Scale(mu, pv.v)
			ctx.Axpy(lr, pv.g, pv.v)
			ctx.Axpy(1, pv.v, pv.p)
		}
	})
}

// Step runs one CD-k update on the batch and returns the batch-mean squared
// reconstruction error ‖v0 − v̂1‖²/batch (0 on model-only devices), the
// conventional progress proxy for RBM training.
func (m *Model) Step(v0 *device.Buffer, lr float64) float64 {
	m.Gradient(v0)
	recon := m.Ctx.SumSquaredDiff(v0, m.pv1) / float64(m.Batch)
	m.ApplyUpdate(lr)
	return recon
}

// HiddenProbs exposes the positive-phase hidden probabilities of the last
// Gradient/Step call — the features a trained RBM layer feeds to the next
// RBM when stacking a Deep Belief Network.
func (m *Model) HiddenProbs() *device.Buffer { return m.ph0 }

// Reconstruction exposes the negative-phase visible probabilities.
func (m *Model) Reconstruction() *device.Buffer { return m.pv1 }

// Gradients exposes the gradient buffers in W, B, C order.
func (m *Model) Gradients() (gw, gb, gc *device.Buffer) { return m.GW, m.GB, m.GC }

func (m *Model) checkInput(v *device.Buffer) {
	if v.Rows != m.Batch || v.Cols != m.Cfg.Visible {
		panic(fmt.Sprintf("rbm: input %dx%d, want %dx%d", v.Rows, v.Cols, m.Batch, m.Cfg.Visible))
	}
}

// BatchSize implements the training engine's Trainable interface.
func (m *Model) BatchSize() int { return m.Batch }

// InputDim implements the training engine's Trainable interface.
func (m *Model) InputDim() int { return m.Cfg.Visible }
