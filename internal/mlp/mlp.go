// Package mlp implements the supervised fine-tuning stage that follows the
// paper's unsupervised pre-training: a deep feed-forward network with
// sigmoid hidden layers and a softmax output, trained with cross-entropy
// back-propagation on the device. Its hidden layers are initialized from a
// pre-trained stack (stacked Autoencoders or a DBN), which is the whole
// point of the pre-training pipeline of Fig. 1 — and the classic result
// that pre-trained initialization beats random initialization is
// demonstrated in examples/finetune and asserted in this package's tests.
package mlp

import (
	"fmt"

	"phideep/internal/blas"
	"phideep/internal/device"
	"phideep/internal/stack"
)

// Config describes the network: Sizes[0] inputs, sigmoid hidden layers,
// Sizes[len-1] softmax classes.
type Config struct {
	Sizes  []int
	Lambda float64 // L2 penalty on all weights
	// Momentum, when non-zero, applies classical momentum to every layer.
	Momentum float64
	// Batch is the minibatch size the device-resident model is built for.
	// Build requires it; the deprecated four-argument constructor fills it
	// from its positional batch argument.
	Batch int
	// Seed initializes the parameters. Zero is a valid seed.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Sizes) < 2 {
		return fmt.Errorf("mlp: need at least input and output sizes, got %d", len(c.Sizes))
	}
	for i, s := range c.Sizes {
		if s <= 0 {
			return fmt.Errorf("mlp: layer %d has non-positive size %d", i, s)
		}
	}
	if c.Lambda < 0 {
		return fmt.Errorf("mlp: negative lambda %g", c.Lambda)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("mlp: momentum %g outside [0,1)", c.Momentum)
	}
	if c.Batch < 0 {
		return fmt.Errorf("mlp: negative batch size %d", c.Batch)
	}
	return nil
}

// Layers returns the number of weight layers.
func (c Config) Layers() int { return len(c.Sizes) - 1 }

// Model is a deep classifier resident on a device.
type Model struct {
	Cfg   Config
	Ctx   *blas.Context
	Batch int

	W, B   []*device.Buffer // W[l]: Sizes[l]×Sizes[l+1]; B[l]: 1×Sizes[l+1]
	GW, GB []*device.Buffer
	vW, vB []*device.Buffer // momentum velocities (nil entries when off)

	act   []*device.Buffer // act[l]: Batch×Sizes[l+1] (post-activation)
	delta []*device.Buffer // delta[l]: Batch×Sizes[l+1]
	dA    []*device.Buffer // sigmoid-derivative scratch per hidden layer

	// inferOnly marks a forward-only model built by NewInference.
	inferOnly bool
	// packs holds the pack-once forms of the layer weights an inference
	// model's GEMMs read; nil on a training model.
	packs *blas.Packs

	mem device.Owner // every buffer above
}

// Build allocates a model for cfg.Batch examples with the random
// initialization drawn from cfg.Seed.
func Build(ctx *blas.Context, cfg Config) (*Model, error) {
	return build(ctx, cfg, cfg.Batch, false, nil)
}

// NewInference allocates a forward-only model for up to batch examples:
// weights, biases and activations only — no gradient, velocity or delta
// workspace. p, when non-nil, provides the weights; nil initializes from
// cfg.Seed. Only Infer, Forward, Upload and Download work on an inference
// model — the training entry points panic.
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
		return nil, fmt.Errorf("mlp: non-positive batch %d", batch)
	}
	m := &Model{Cfg: cfg, Ctx: ctx, Batch: batch, inferOnly: inferOnly, mem: device.Owner{Dev: ctx.Dev}}
	if inferOnly {
		m.packs = new(blas.Packs)
	}
	mem := &m.mem
	L := cfg.Layers()
	m.W, m.B = make([]*device.Buffer, L), make([]*device.Buffer, L)
	m.act = make([]*device.Buffer, L)
	if !inferOnly {
		m.GW, m.GB = make([]*device.Buffer, L), make([]*device.Buffer, L)
		m.vW, m.vB = make([]*device.Buffer, L), make([]*device.Buffer, L)
		m.delta, m.dA = make([]*device.Buffer, L), make([]*device.Buffer, L)
	}
	for l := 0; l < L; l++ {
		in, out := cfg.Sizes[l], cfg.Sizes[l+1]
		m.W[l], m.B[l] = mem.Alloc(in, out), mem.Alloc(1, out)
		m.act[l] = mem.Alloc(batch, out)
		if inferOnly {
			continue
		}
		m.GW[l], m.GB[l] = mem.Alloc(in, out), mem.Alloc(1, out)
		if cfg.Momentum > 0 {
			m.vW[l], m.vB[l] = mem.Alloc(in, out), mem.Alloc(1, out)
		}
		m.delta[l] = mem.Alloc(batch, out)
		if l < L-1 {
			m.dA[l] = mem.Alloc(batch, out)
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

// Free releases every device buffer.
func (m *Model) Free() { m.mem.Free() }

// params lists the device parameters in Params.ParamSet order.
func (m *Model) params() []*device.Buffer {
	bufs := make([]*device.Buffer, 0, 2*len(m.W))
	for l := range m.W {
		bufs = append(bufs, m.W[l], m.B[l])
	}
	return bufs
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

// InitFromStack copies a pre-trained stack's encoder weights into the
// hidden layers (the Fig. 1 hand-off into supervised fine-tuning). The
// stack must cover a prefix of the hidden layers: stack layer l provides
// W[l], B[l]. The remaining layers (at least the softmax head) keep their
// random initialization.
func (m *Model) InitFromStack(res *stack.Result) error {
	if len(res.Layers) > m.Cfg.Layers()-1 {
		return fmt.Errorf("mlp: stack has %d layers but the network has only %d hidden layers", len(res.Layers), m.Cfg.Layers()-1)
	}
	dev := m.Ctx.Dev
	for l, layer := range res.Layers {
		if layer.Visible != m.Cfg.Sizes[l] || layer.Hidden != m.Cfg.Sizes[l+1] {
			return fmt.Errorf("mlp: stack layer %d is %d→%d, network layer wants %d→%d",
				l, layer.Visible, layer.Hidden, m.Cfg.Sizes[l], m.Cfg.Sizes[l+1])
		}
		switch {
		case layer.AE != nil:
			dev.CopyIn(m.W[l], layer.AE.W1, 0)
			dev.CopyIn(m.B[l], layer.AE.B1.AsRow(), 0)
		case layer.RBM != nil:
			dev.CopyIn(m.W[l], layer.RBM.W, 0)
			dev.CopyIn(m.B[l], layer.RBM.C.AsRow(), 0)
		default:
			return fmt.Errorf("mlp: stack layer %d has no parameters", l)
		}
	}
	m.packs.Reset()
	return nil
}

// Forward runs the batched forward pass; act[L-1] holds the softmax
// probabilities afterwards. It is Infer on a full batch, whose views are
// the whole activation buffers.
func (m *Model) Forward(x *device.Buffer) {
	m.checkInput(x)
	m.Infer(x)
}

// Infer runs the batched forward pass for 1..Batch examples (one per row
// of x) and returns a view of the softmax probabilities, x.Rows×Classes.
// The returned buffer is owned by the model and overwritten by the next
// call; CopyOut it (or read it) before inferring again. Unlike Forward it
// accepts partial batches, computing on row views of the activation
// workspace. An inference model reads each layer's weights from their
// pack-once form.
func (m *Model) Infer(x *device.Buffer) *device.Buffer {
	n := m.checkInfer(x)
	ctx := m.Ctx
	in := x
	L := m.Cfg.Layers()
	var out *device.Buffer
	for l := 0; l < L; l++ {
		layerIn, layer := in, l
		out = m.act[l].Head(n)
		act := out
		ctx.MaybeFused(func() {
			ctx.GemmPacked(false, false, 1, layerIn, m.W[layer], m.packs.B(m.W[layer], false), 0, act)
			ctx.AddBiasRow(act, m.B[layer])
			if layer < L-1 {
				ctx.Sigmoid(act, act)
			} else {
				ctx.SoftmaxRows(act, act)
			}
		})
		in = out
	}
	return out
}

// checkInfer validates a forward-only input and returns its row count.
func (m *Model) checkInfer(x *device.Buffer) int {
	if x.Rows < 1 || x.Rows > m.Batch || x.Cols != m.Cfg.Sizes[0] {
		panic(fmt.Sprintf("mlp: inference input %dx%d, want 1..%d×%d", x.Rows, x.Cols, m.Batch, m.Cfg.Sizes[0]))
	}
	return x.Rows
}

// mustTrain panics when a training entry point is hit on a forward-only
// model, whose gradient workspace was never allocated.
func (m *Model) mustTrain(op string) {
	if m.inferOnly {
		panic("mlp: " + op + " on an inference-only model (built by NewInference)")
	}
}

// Backward computes the cross-entropy gradient for the batch (x, one-hot
// y), averaged over the batch with the λ term included. Forward must have
// run on the same x.
func (m *Model) Backward(x, y *device.Buffer) {
	m.mustTrain("Backward")
	m.checkInput(x)
	L := m.Cfg.Layers()
	if y.Rows != m.Batch || y.Cols != m.Cfg.Sizes[L] {
		panic(fmt.Sprintf("mlp: targets %dx%d, want %dx%d", y.Rows, y.Cols, m.Batch, m.Cfg.Sizes[L]))
	}
	ctx := m.Ctx
	invM := 1 / float64(m.Batch)

	// Softmax+cross-entropy delta: (p − y)/batch.
	ctx.MaybeFused(func() {
		ctx.Sub(m.delta[L-1], m.act[L-1], y)
		ctx.Scale(invM, m.delta[L-1])
	})

	for l := L - 1; l >= 0; l-- {
		in := x
		if l > 0 {
			in = m.act[l-1]
		}
		ctx.MaybeConcurrent(func() {
			ctx.Gemm(true, false, 1, in, m.delta[l], 0, m.GW[l])
			ctx.ColSums(m.delta[l], m.GB[l])
		})
		if m.Cfg.Lambda != 0 {
			ctx.Axpy(m.Cfg.Lambda, m.W[l], m.GW[l])
		}
		if l > 0 {
			l := l
			ctx.MaybeFused(func() {
				ctx.Gemm(false, true, 1, m.delta[l], m.W[l], 0, m.delta[l-1])
				ctx.SigmoidPrimeFromY(m.dA[l-1], m.act[l-1])
				ctx.MulElem(m.delta[l-1], m.delta[l-1], m.dA[l-1])
			})
		}
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
// batch-mean cross-entropy (0 on model-only devices).
// BatchSize implements core.LabeledTrainable.
func (m *Model) BatchSize() int { return m.Batch }

// InputDim implements core.LabeledTrainable.
func (m *Model) InputDim() int { return m.Cfg.Sizes[0] }

// OutputDim implements core.LabeledTrainable.
func (m *Model) OutputDim() int { return m.Cfg.Sizes[len(m.Cfg.Sizes)-1] }

func (m *Model) StepLabeled(x, y *device.Buffer, lr float64) float64 {
	m.Forward(x)
	loss := m.Ctx.CrossEntropyOneHot(m.Probs(), y) / float64(m.Batch)
	m.Backward(x, y)
	m.ApplyUpdate(lr)
	return loss
}

// Accuracy runs Forward on x and returns the fraction of rows whose argmax
// matches the one-hot y (0 on model-only devices).
func (m *Model) Accuracy(x, y *device.Buffer) float64 {
	m.Forward(x)
	return float64(m.Ctx.CountArgmaxMatches(m.Probs(), y)) / float64(m.Batch)
}

// Probs exposes the softmax output buffer of the last Forward.
func (m *Model) Probs() *device.Buffer { return m.act[m.Cfg.Layers()-1] }

func (m *Model) checkInput(x *device.Buffer) {
	if x.Rows != m.Batch || x.Cols != m.Cfg.Sizes[0] {
		panic(fmt.Sprintf("mlp: input %dx%d, want %dx%d", x.Rows, x.Cols, m.Batch, m.Cfg.Sizes[0]))
	}
}
