// Package convnet implements the convolutional workload family opened by
// ROADMAP item 1: a LeNet-style classifier — conv → pool → conv → pool →
// softmax — trained and served on the simulated coprocessor. Convolutions
// are lowered CHAOS-style (Viebke et al., arXiv 1702.07908) through
// kernels.Im2col into the packed GEMM micro-kernel, so the same Table I
// optimization ladder that drives the dense models drives this one; thread
// parallelization splits the batch's images across workers and filter
// blocks within them (DESIGN.md §12). Training runs supervised on the
// synthetic digits through core.Trainer.RunLabeled with full PHCK
// checkpoint/resume; forward-only float64 and float32 replicas plug into
// internal/serve.
package convnet

import (
	"fmt"
	"io"

	"phideep/internal/blas"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/nn"
)

// Config describes the LeNet-style network. The input is a Side×Side
// single-channel image (one data.Digits row); both conv layers use
// "same" padding (odd kernels, stride 1) and sigmoid activations; both
// pooling layers are non-overlapping Pool×Pool maxima; the head is a
// dense softmax over Classes.
type Config struct {
	Side     int // input image side; InputDim = Side²
	Filters1 int // conv1 output channels
	Kernel1  int // conv1 kernel side (odd)
	Filters2 int // conv2 output channels
	Kernel2  int // conv2 kernel side (odd)
	Pool     int // pooling window and stride (applied twice)
	Classes  int
	Lambda   float64 // L2 penalty on all weights
	// Momentum, when non-zero, applies classical momentum to every layer.
	Momentum float64
	// Batch is the minibatch size the device-resident model is built for.
	Batch int
	// Seed initializes the parameters. Zero is a valid seed.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Side < 4 {
		return fmt.Errorf("convnet: side %d too small", c.Side)
	}
	if c.Filters1 <= 0 || c.Filters2 <= 0 {
		return fmt.Errorf("convnet: non-positive filter counts %d, %d", c.Filters1, c.Filters2)
	}
	if c.Kernel1 <= 0 || c.Kernel1%2 == 0 || c.Kernel2 <= 0 || c.Kernel2%2 == 0 {
		return fmt.Errorf("convnet: kernels %d, %d must be positive and odd (same padding)", c.Kernel1, c.Kernel2)
	}
	if c.Pool <= 1 {
		return fmt.Errorf("convnet: pool %d must be at least 2", c.Pool)
	}
	if c.Side%c.Pool != 0 || (c.Side/c.Pool)%c.Pool != 0 {
		return fmt.Errorf("convnet: side %d not divisible by pool %d twice", c.Side, c.Pool)
	}
	if c.Classes < 2 {
		return fmt.Errorf("convnet: need at least 2 classes, got %d", c.Classes)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("convnet: negative lambda %g", c.Lambda)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("convnet: momentum %g outside [0,1)", c.Momentum)
	}
	if c.Batch < 0 {
		return fmt.Errorf("convnet: negative batch size %d", c.Batch)
	}
	if c.Kernel1 > c.Side || c.Kernel2 > c.Side/c.Pool {
		return fmt.Errorf("convnet: kernel larger than its layer input")
	}
	return nil
}

// InputDim returns the example dimensionality Side².
func (c Config) InputDim() int { return c.Side * c.Side }

// Conv1Shape returns the first conv layer geometry.
func (c Config) Conv1Shape() kernels.ConvShape {
	return kernels.ConvShape{
		C: 1, H: c.Side, W: c.Side, F: c.Filters1,
		KH: c.Kernel1, KW: c.Kernel1, Stride: 1, Pad: (c.Kernel1 - 1) / 2,
	}
}

// Pool1Shape returns the first pooling geometry.
func (c Config) Pool1Shape() kernels.PoolShape {
	return kernels.PoolShape{C: c.Filters1, H: c.Side, W: c.Side, Size: c.Pool, Stride: c.Pool}
}

// Conv2Shape returns the second conv layer geometry.
func (c Config) Conv2Shape() kernels.ConvShape {
	s := c.Side / c.Pool
	return kernels.ConvShape{
		C: c.Filters1, H: s, W: s, F: c.Filters2,
		KH: c.Kernel2, KW: c.Kernel2, Stride: 1, Pad: (c.Kernel2 - 1) / 2,
	}
}

// Pool2Shape returns the second pooling geometry.
func (c Config) Pool2Shape() kernels.PoolShape {
	s := c.Side / c.Pool
	return kernels.PoolShape{C: c.Filters2, H: s, W: s, Size: c.Pool, Stride: c.Pool}
}

// FCInputDim returns the flattened dimensionality feeding the softmax head.
func (c Config) FCInputDim() int { return c.Pool2Shape().OutDim() }

// Model is the device-resident convnet. Parameter, gradient and velocity
// buffers are indexed 0 = conv1, 1 = conv2, 2 = softmax head.
type Model struct {
	Cfg   Config
	Ctx   *blas.Context
	Batch int

	c1, c2 kernels.ConvShape
	p1, p2 kernels.PoolShape

	W, B   []*device.Buffer // W[0]: ColK1×F1, W[1]: ColK2×F2, W[2]: fcIn×Classes
	GW, GB []*device.Buffer
	vW, vB []*device.Buffer // momentum velocities (nil entries when off)

	// Forward workspace. Conv activations live in the GEMM's
	// (batch·oHW)×F geometry; pooling reads the same storage as
	// batch×(oHW·F) NHWC rows — the layout identity of the lowering.
	cols1, a1, pl1, arg1 *device.Buffer
	cols2, a2, pl2, arg2 *device.Buffer
	out                  *device.Buffer // batch×Classes softmax probabilities

	// Backward workspace (training models only). a1/a2 are destroyed by
	// Backward (their sigmoid derivative overwrites them).
	d3, dpl2, da2, dcols2, dpl1, da1 *device.Buffer

	// inferOnly marks a forward-only model built by NewInference.
	inferOnly bool
	// packs holds the pack-once forms of the filter and FC weights an
	// inference model's GEMMs read; nil on a training model.
	packs *blas.Packs

	mem device.Owner // every buffer above
}

// Build allocates a training model for cfg.Batch examples with the random
// initialization drawn from cfg.Seed.
func Build(ctx *blas.Context, cfg Config) (*Model, error) {
	return build(ctx, cfg, cfg.Batch, false, nil)
}

// NewInference allocates a forward-only model for up to batch examples:
// weights, biases and forward workspace only. p, when non-nil, provides
// the weights; nil initializes from cfg.Seed. Only Infer, Forward, Upload
// and Download work on an inference model — the training entry points
// panic.
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
		return nil, fmt.Errorf("convnet: non-positive batch %d", batch)
	}
	m := &Model{
		Cfg: cfg, Ctx: ctx, Batch: batch, inferOnly: inferOnly,
		c1: cfg.Conv1Shape(), c2: cfg.Conv2Shape(),
		p1: cfg.Pool1Shape(), p2: cfg.Pool2Shape(),
		mem: device.Owner{Dev: ctx.Dev},
	}
	if inferOnly {
		m.packs = new(blas.Packs)
	}
	mem := &m.mem

	fcIn := cfg.FCInputDim()
	wShapes := [3][2]int{
		{m.c1.ColK(), m.c1.F},
		{m.c2.ColK(), m.c2.F},
		{fcIn, cfg.Classes},
	}
	m.W, m.B = make([]*device.Buffer, 3), make([]*device.Buffer, 3)
	for l, s := range wShapes {
		m.W[l], m.B[l] = mem.Alloc(s[0], s[1]), mem.Alloc(1, s[1])
	}

	o1HW := m.c1.OutH() * m.c1.OutW()
	o2HW := m.c2.OutH() * m.c2.OutW()
	m.cols1 = mem.Alloc(batch*o1HW, m.c1.ColK())
	m.a1 = mem.Alloc(batch*o1HW, m.c1.F)
	m.pl1 = mem.Alloc(batch, m.p1.OutDim())
	m.arg1 = mem.Alloc(batch, m.p1.OutDim())
	m.cols2 = mem.Alloc(batch*o2HW, m.c2.ColK())
	m.a2 = mem.Alloc(batch*o2HW, m.c2.F)
	m.pl2 = mem.Alloc(batch, m.p2.OutDim())
	m.arg2 = mem.Alloc(batch, m.p2.OutDim())
	m.out = mem.Alloc(batch, cfg.Classes)

	if !inferOnly {
		m.GW, m.GB = make([]*device.Buffer, 3), make([]*device.Buffer, 3)
		m.vW, m.vB = make([]*device.Buffer, 3), make([]*device.Buffer, 3)
		for l, s := range wShapes {
			m.GW[l], m.GB[l] = mem.Alloc(s[0], s[1]), mem.Alloc(1, s[1])
			if cfg.Momentum > 0 {
				m.vW[l], m.vB[l] = mem.Alloc(s[0], s[1]), mem.Alloc(1, s[1])
			}
		}
		m.d3 = mem.Alloc(batch, cfg.Classes)
		m.dpl2 = mem.Alloc(batch, fcIn)
		m.da2 = mem.Alloc(batch*o2HW, m.c2.F)
		m.dcols2 = mem.Alloc(batch*o2HW, m.c2.ColK())
		m.dpl1 = mem.Alloc(batch, m.p1.OutDim())
		m.da1 = mem.Alloc(batch*o1HW, m.c1.F)
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

// Free releases every device buffer.
func (m *Model) Free() { m.mem.Free() }

// params lists the device parameters in Params.ParamSet order.
func (m *Model) params() []*device.Buffer {
	return []*device.Buffer{m.W[0], m.B[0], m.W[1], m.B[1], m.W[2], m.B[2]}
}

// Upload transfers host parameters onto the device and drops the packed
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
// RNG state. Momentum velocity is not captured; exact resume holds for
// the velocity-free configuration.
func (m *Model) SaveState(w io.Writer) error {
	return nn.SaveState(w, m.Download().ParamSet(), m.Ctx.RNG)
}

// RestoreState reads state written by SaveState, uploads the parameters to
// the device and restores the RNG stream.
func (m *Model) RestoreState(r io.Reader) error {
	p := zeroParams(m.Cfg)
	if err := nn.LoadState(r, p.ParamSet(), m.Ctx.RNG); err != nil {
		return err
	}
	m.Upload(p)
	return nil
}

// forward runs the pipeline on the first n examples of the workspace. An
// inference model reads its filter and FC weights from their pack-once
// form.
func (m *Model) forward(x *device.Buffer, n int) *device.Buffer {
	ctx := m.Ctx
	o1HW := m.c1.OutH() * m.c1.OutW()
	o2HW := m.c2.OutH() * m.c2.OutW()
	cols1, a1 := m.cols1.Head(n*o1HW), m.a1.Head(n*o1HW)
	pl1, arg1 := m.pl1.Head(n), m.arg1.Head(n)
	cols2, a2 := m.cols2.Head(n*o2HW), m.a2.Head(n*o2HW)
	pl2, arg2 := m.pl2.Head(n), m.arg2.Head(n)
	out := m.out.Head(n)

	ctx.Im2col(m.c1, n, x, cols1)
	ctx.MaybeFused(func() {
		ctx.GemmPacked(false, false, 1, cols1, m.W[0], m.packs.B(m.W[0], false), 0, a1)
		ctx.AddBiasRow(a1, m.B[0])
		ctx.Sigmoid(a1, a1)
	})
	ctx.MaxPool(m.p1, n, a1, pl1, arg1)
	ctx.Im2col(m.c2, n, pl1, cols2)
	ctx.MaybeFused(func() {
		ctx.GemmPacked(false, false, 1, cols2, m.W[1], m.packs.B(m.W[1], false), 0, a2)
		ctx.AddBiasRow(a2, m.B[1])
		ctx.Sigmoid(a2, a2)
	})
	ctx.MaxPool(m.p2, n, a2, pl2, arg2)
	ctx.MaybeFused(func() {
		ctx.GemmPacked(false, false, 1, pl2, m.W[2], m.packs.B(m.W[2], false), 0, out)
		ctx.AddBiasRow(out, m.B[2])
		ctx.SoftmaxRows(out, out)
	})
	return out
}

// Forward runs the batched forward pass; Probs() holds the softmax output
// afterwards.
func (m *Model) Forward(x *device.Buffer) {
	m.checkInput(x)
	m.forward(x, m.Batch)
}

// Infer runs the forward pass for 1..Batch examples (one image per row of
// x) and returns a view of the softmax probabilities, x.Rows×Classes. The
// returned buffer is owned by the model and overwritten by the next call.
func (m *Model) Infer(x *device.Buffer) *device.Buffer {
	if x.Rows < 1 || x.Rows > m.Batch || x.Cols != m.Cfg.InputDim() {
		panic(fmt.Sprintf("convnet: inference input %dx%d, want 1..%d×%d", x.Rows, x.Cols, m.Batch, m.Cfg.InputDim()))
	}
	return m.forward(x, x.Rows)
}

// Probs exposes the softmax output buffer of the last Forward.
func (m *Model) Probs() *device.Buffer { return m.out }

// Backward computes the cross-entropy gradient for the batch (x, one-hot
// y), averaged over the batch with the λ term included. Forward must have
// run on the same x; the sigmoid activations a1/a2 are consumed (their
// derivative overwrites them), so Backward cannot run twice per Forward.
func (m *Model) Backward(x, y *device.Buffer) {
	m.mustTrain("Backward")
	m.checkInput(x)
	if y.Rows != m.Batch || y.Cols != m.Cfg.Classes {
		panic(fmt.Sprintf("convnet: targets %dx%d, want %dx%d", y.Rows, y.Cols, m.Batch, m.Cfg.Classes))
	}
	ctx := m.Ctx
	invM := 1 / float64(m.Batch)

	// Softmax+cross-entropy delta: (p − y)/batch.
	ctx.MaybeFused(func() {
		ctx.Sub(m.d3, m.out, y)
		ctx.Scale(invM, m.d3)
	})

	// Softmax head.
	ctx.MaybeConcurrent(func() {
		ctx.Gemm(true, false, 1, m.pl2, m.d3, 0, m.GW[2])
		ctx.ColSums(m.d3, m.GB[2])
	})
	if m.Cfg.Lambda != 0 {
		ctx.Axpy(m.Cfg.Lambda, m.W[2], m.GW[2])
	}
	ctx.Gemm(false, true, 1, m.d3, m.W[2], 0, m.dpl2)

	// Conv2 block: route through pool2, undo the sigmoid, then the
	// lowered weight gradient (cols2ᵀ·δ) and filter-block bias reduction.
	ctx.MaxPoolBackward(m.p2, m.Batch, m.dpl2, m.arg2, m.da2)
	ctx.MaybeFused(func() {
		ctx.SigmoidPrimeFromY(m.a2, m.a2)
		ctx.MulElem(m.da2, m.da2, m.a2)
	})
	ctx.MaybeConcurrent(func() {
		ctx.Gemm(true, false, 1, m.cols2, m.da2, 0, m.GW[1])
		ctx.ConvBiasGrad(m.da2, m.GB[1])
	})
	if m.Cfg.Lambda != 0 {
		ctx.Axpy(m.Cfg.Lambda, m.W[1], m.GW[1])
	}
	ctx.Gemm(false, true, 1, m.da2, m.W[1], 0, m.dcols2)
	ctx.Col2im(m.c2, m.Batch, m.dcols2, m.dpl1)

	// Conv1 block (no input gradient needed below the first layer).
	ctx.MaxPoolBackward(m.p1, m.Batch, m.dpl1, m.arg1, m.da1)
	ctx.MaybeFused(func() {
		ctx.SigmoidPrimeFromY(m.a1, m.a1)
		ctx.MulElem(m.da1, m.da1, m.a1)
	})
	ctx.MaybeConcurrent(func() {
		ctx.Gemm(true, false, 1, m.cols1, m.da1, 0, m.GW[0])
		ctx.ConvBiasGrad(m.da1, m.GB[0])
	})
	if m.Cfg.Lambda != 0 {
		ctx.Axpy(m.Cfg.Lambda, m.W[0], m.GW[0])
	}
}

// ApplyUpdate applies SGD or momentum to every layer.
func (m *Model) ApplyUpdate(lr float64) {
	m.mustTrain("ApplyUpdate")
	ctx := m.Ctx
	mu := m.Cfg.Momentum
	ctx.MaybeFused(func() {
		for l := range m.W {
			if mu == 0 {
				ctx.Axpy(-lr, m.GW[l], m.W[l])
				ctx.Axpy(-lr, m.GB[l], m.B[l])
				continue
			}
			ctx.Scale(mu, m.vW[l])
			ctx.Axpy(-lr, m.GW[l], m.vW[l])
			ctx.Axpy(1, m.vW[l], m.W[l])
			ctx.Scale(mu, m.vB[l])
			ctx.Axpy(-lr, m.GB[l], m.vB[l])
			ctx.Axpy(1, m.vB[l], m.B[l])
		}
	})
}

// StepLabeled runs one supervised update on (x, one-hot y) and returns the
// batch-mean cross-entropy (0 on model-only devices). It implements
// core.LabeledTrainable.
func (m *Model) StepLabeled(x, y *device.Buffer, lr float64) float64 {
	m.Forward(x)
	loss := m.Ctx.CrossEntropyOneHot(m.out, y) / float64(m.Batch)
	m.Backward(x, y)
	m.ApplyUpdate(lr)
	return loss
}

// Accuracy runs Forward on x and returns the fraction of rows whose argmax
// matches the one-hot y (0 on model-only devices).
func (m *Model) Accuracy(x, y *device.Buffer) float64 {
	m.Forward(x)
	return float64(m.Ctx.CountArgmaxMatches(m.out, y)) / float64(m.Batch)
}

// BatchSize implements core.LabeledTrainable.
func (m *Model) BatchSize() int { return m.Batch }

// InputDim implements core.LabeledTrainable.
func (m *Model) InputDim() int { return m.Cfg.InputDim() }

// OutputDim implements core.LabeledTrainable.
func (m *Model) OutputDim() int { return m.Cfg.Classes }

func (m *Model) checkInput(x *device.Buffer) {
	if x.Rows != m.Batch || x.Cols != m.Cfg.InputDim() {
		panic(fmt.Sprintf("convnet: input %dx%d, want %dx%d", x.Rows, x.Cols, m.Batch, m.Cfg.InputDim()))
	}
}

// mustTrain panics when a training entry point is hit on a forward-only
// model, whose gradient workspace was never allocated.
func (m *Model) mustTrain(op string) {
	if m.inferOnly {
		panic("convnet: " + op + " on an inference-only model (built by NewInference)")
	}
}
