package autoencoder

import (
	"fmt"

	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/nn"
	"phideep/internal/tensor"
)

// BatchObjective evaluates the full-dataset Sparse Autoencoder objective on
// the device by streaming minibatches and accumulating gradients in device
// memory — the evaluation primitive behind the batch optimization methods
// (L-BFGS, CG) that the paper's §III discusses as the parallelism-friendly
// alternative to online SGD. Each Objective call uploads the current
// parameters over PCIe, streams the whole dataset through
// Forward/Backward, and downloads the averaged gradient, so the simulated
// clock charges exactly what a batch optimizer costs on the coprocessor.
//
// The KL sparsity statistic ρ̂ is computed per minibatch (as in minibatch
// training); with Beta = 0, or with a single batch spanning the dataset,
// the objective equals the reference CostGrad exactly.
type BatchObjective struct {
	model *Model
	src   data.Source

	hostParams *Params
	hostGrad   *Params
	ps, gs     *nn.ParamSet

	// Device accumulation buffers for the gradient sum.
	accGW1, accGB1, accGB2 *device.Buffer
	accGW2                 *device.Buffer // nil when tied

	x       *device.Buffer
	hostX   *tensor.Matrix
	batches int

	mem device.Owner // the accumulators and x
}

// NewBatchObjective builds the evaluator on the model's device. src.Len()
// must be a positive multiple of the model's batch size (streamed exactly
// once per evaluation).
func NewBatchObjective(m *Model, src data.Source) (*BatchObjective, tensor.Vector, error) {
	if src.Dim() != m.Cfg.Visible {
		return nil, nil, fmt.Errorf("autoencoder: batch objective source dim %d, want %d", src.Dim(), m.Cfg.Visible)
	}
	if src.Len() == 0 || src.Len()%m.Batch != 0 {
		return nil, nil, fmt.Errorf("autoencoder: batch objective needs a dataset that is a positive multiple of batch %d, got %d", m.Batch, src.Len())
	}
	b := &BatchObjective{
		model:      m,
		src:        src,
		hostParams: m.Download(),
		hostGrad:   ZeroGrad(m.Cfg),
		batches:    src.Len() / m.Batch,
		mem:        device.Owner{Dev: m.Ctx.Dev},
	}
	b.ps = b.hostParams.ParamSet()
	b.gs = b.hostGrad.ParamSet()
	mem := &b.mem
	v, h := m.Cfg.Visible, m.Cfg.Hidden
	b.accGW1, b.accGB1 = mem.Alloc(v, h), mem.Alloc(1, h)
	b.accGB2 = mem.Alloc(1, v)
	if !m.Cfg.Tied {
		b.accGW2 = mem.Alloc(h, v)
	}
	b.x = mem.Alloc(m.Batch, v)
	if err := mem.Err(); err != nil {
		mem.Free()
		return nil, nil, err
	}
	if m.Ctx.Dev.Numeric {
		b.hostX = tensor.NewMatrix(m.Batch, v)
	}
	theta := b.ps.Flatten(nil)
	return b, theta, nil
}

// Free releases the evaluator's device buffers (not the model's).
func (b *BatchObjective) Free() { b.mem.Free() }

// Eval implements the opt.Objective contract: it writes theta into the
// model, streams the dataset, and returns the mean cost (plus penalties),
// filling grad with the averaged gradient when non-nil. On timing-only
// devices the returned cost and gradient are zero — only the clock runs.
func (b *BatchObjective) Eval(theta, grad tensor.Vector) float64 {
	m := b.model
	ctx := m.Ctx
	dev := ctx.Dev

	// Upload the candidate parameters (a real PCIe cost per evaluation).
	b.ps.Unflatten(theta)
	m.Upload(b.hostParams)

	wantGrad := grad != nil
	if wantGrad {
		ctx.MaybeFused(func() {
			ctx.Scale(0, b.accGW1)
			ctx.Scale(0, b.accGB1)
			ctx.Scale(0, b.accGB2)
			if b.accGW2 != nil {
				ctx.Scale(0, b.accGW2)
			}
		})
	}

	costSum := 0.0
	for i := 0; i < b.batches; i++ {
		if dev.Numeric {
			b.src.Chunk(i*m.Batch, m.Batch, b.hostX)
			dev.CopyIn(b.x, b.hostX, 0)
		} else {
			dev.CopyIn(b.x, nil, 0)
		}
		costSum += m.Cost(b.x)
		if !wantGrad {
			continue
		}
		m.Backward(b.x)
		ctx.MaybeFused(func() {
			ctx.Axpy(1, m.GW1, b.accGW1)
			ctx.Axpy(1, m.GB1, b.accGB1)
			ctx.Axpy(1, m.GB2, b.accGB2)
			if b.accGW2 != nil {
				ctx.Axpy(1, m.GW2, b.accGW2)
			}
		})
	}
	cost := costSum / float64(b.batches)

	if wantGrad {
		inv := 1 / float64(b.batches)
		ctx.MaybeFused(func() {
			ctx.Scale(inv, b.accGW1)
			ctx.Scale(inv, b.accGB1)
			ctx.Scale(inv, b.accGB2)
			if b.accGW2 != nil {
				ctx.Scale(inv, b.accGW2)
			}
		})
		// hostGrad.W2 stays zero when tied: the decoder gradient is in W1.
		dev.CopyOut(b.accGW1, b.hostGrad.W1)
		dev.CopyOut(b.accGB1, b.hostGrad.B1.AsRow())
		dev.CopyOut(b.accGB2, b.hostGrad.B2.AsRow())
		if b.accGW2 != nil {
			dev.CopyOut(b.accGW2, b.hostGrad.W2)
		}
		b.gs.Flatten(grad)
	}
	return cost
}
