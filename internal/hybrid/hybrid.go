// Package hybrid implements the paper's second future-work item: "a
// further combination between Xeon and Intel Xeon Phi can bring us higher
// efficiency. Since the transferring speed between Xeon and Intel Xeon Phi
// is slow, the transferring cost can be intolerable when the model becomes
// large."
//
// Each minibatch is split between the host CPU and the coprocessor in
// proportion to their modeled throughput; both compute partial gradients on
// their shard, the shards are exchanged and averaged (the coprocessor pays
// PCIe both ways — gradients out, combined gradients in), and both replicas
// apply the same update. The simulated timelines of the two devices run
// concurrently; every step ends with a synchronization barrier at the later
// of the two finish times plus the exchange.
//
// The experiments quantify the paper's caveat as a negative result under
// this cost model: on small models the coprocessor's fixed parallel-region
// launch overhead does not shrink with its shard (so at best the hybrid
// matches the better single device), and on large models the per-step
// gradient exchange over PCIe is, exactly as the paper put it,
// "intolerable". The throughput-balancing splitter therefore pushes the
// shard toward whichever device wins outright, and the measured hybrid gain
// never exceeds a few percent.
package hybrid

import (
	"fmt"

	"math"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/tensor"
)

// AEConfig parameterizes a hybrid Sparse Autoencoder trainer.
type AEConfig struct {
	Model autoencoder.Config
	// Batch is the combined minibatch size, split between the devices.
	Batch int
	// PhiShare is the fraction of each batch sent to the coprocessor; 0
	// selects the throughput-proportional split from the cost model.
	PhiShare float64
	// Seed initializes both replicas identically. Zero is a valid seed.
	Seed uint64
}

// AE trains one Sparse Autoencoder data-parallel across a host context and
// a coprocessor context.
type AE struct {
	Cfg AEConfig

	phi, host           *autoencoder.Model
	phiBatch, hostBatch int

	// synchronized simulated time: both replicas have identical
	// parameters and may start their next step at this instant.
	syncedAt float64
	steps    int
}

// BuildAE builds the pair of replicas. phiCtx must be bound to a device
// with a PCIe link (the coprocessor); hostCtx to a host device. The models
// are initialized identically from cfg.Seed.
func BuildAE(phiCtx, hostCtx *blas.Context, cfg AEConfig) (*AE, error) {
	if cfg.Batch < 2 {
		return nil, fmt.Errorf("hybrid: combined batch %d too small to split", cfg.Batch)
	}
	if cfg.PhiShare < 0 || cfg.PhiShare >= 1 {
		return nil, fmt.Errorf("hybrid: phi share %g outside [0, 1)", cfg.PhiShare)
	}
	if phiCtx.Dev.Arch.PCIeBW <= 0 {
		return nil, fmt.Errorf("hybrid: phi context device %q has no PCIe link", phiCtx.Dev.Arch.Name)
	}
	share := cfg.PhiShare
	if share == 0 {
		share = throughputShare(phiCtx, hostCtx, cfg)
	}
	phiBatch := int(float64(cfg.Batch)*share + 0.5)
	if phiBatch < 1 {
		phiBatch = 1
	}
	if phiBatch >= cfg.Batch {
		phiBatch = cfg.Batch - 1
	}
	h := &AE{Cfg: cfg, phiBatch: phiBatch, hostBatch: cfg.Batch - phiBatch}

	var err error
	phiModel, hostModel := cfg.Model, cfg.Model
	phiModel.Batch, phiModel.Seed = h.phiBatch, cfg.Seed
	hostModel.Batch, hostModel.Seed = h.hostBatch, cfg.Seed
	h.phi, err = autoencoder.Build(phiCtx, phiModel)
	if err != nil {
		return nil, fmt.Errorf("hybrid: phi replica: %w", err)
	}
	h.host, err = autoencoder.Build(hostCtx, hostModel)
	if err != nil {
		h.phi.Free()
		return nil, fmt.Errorf("hybrid: host replica: %w", err)
	}
	return h, nil
}

// throughputShare estimates the coprocessor's share of a batch so both
// devices finish their shards together. Each device's per-step cost is
// probed at two shard sizes with timing-only replicas and fitted as
// t(b) = fixed + perExample·b — the fixed term matters, because the Phi's
// parallel-region launch overhead does not shrink with the shard.
func throughputShare(phiCtx, hostCtx *blas.Context, cfg AEConfig) float64 {
	aP, cP := probeStepCost(phiCtx, cfg.Model, cfg.Batch)
	aH, cH := probeStepCost(hostCtx, cfg.Model, cfg.Batch)
	// Equalize aP + cP·bP = aH + cH·(B − bP).
	b := float64(cfg.Batch)
	denom := cP + cH
	if denom <= 0 {
		return 0.5
	}
	bP := (aH - aP + cH*b) / denom
	share := bP / b
	if share < 1/b {
		share = 1 / b
	}
	if share > 1-1/b {
		share = 1 - 1/b
	}
	return share
}

// probeStepCost fits one device's per-step cost t(b) = fixed + perExample·b
// from timing-only runs at the full and half batch.
func probeStepCost(ctx *blas.Context, model autoencoder.Config, batch int) (fixed, perExample float64) {
	b1, b2 := batch, batch/2
	if b2 < 1 {
		b2 = 1
	}
	t1 := probeOneStep(ctx, model, b1)
	t2 := probeOneStep(ctx, model, b2)
	if b1 == b2 {
		return 0, t1 / float64(b1)
	}
	perExample = (t1 - t2) / float64(b1-b2)
	if perExample < 0 {
		perExample = 0
	}
	fixed = t1 - perExample*float64(b1)
	if fixed < 0 {
		fixed = 0
	}
	return fixed, perExample
}

// probeOneStep models one steady-state training step on a fresh
// timing-only device with the context's configuration: two steps are
// issued and the second one is timed, so one-time costs (the initial
// weight upload) do not contaminate the per-step estimate.
func probeOneStep(ctx *blas.Context, model autoencoder.Config, batch int) float64 {
	dev := device.New(ctx.Dev.Arch, false, nil)
	probe := *ctx
	probe.Dev = dev
	model.Batch, model.Seed = batch, 1
	m, err := autoencoder.Build(&probe, model)
	if err != nil {
		// Shard too large for the probe device: treat as very slow so the
		// split avoids it.
		return math.Inf(1)
	}
	defer m.Free()
	x := dev.MustAlloc(batch, model.Visible)
	dev.CopyIn(x, nil, 0)
	m.Step(x, 0.1)
	mid := dev.ComputeBusyUntil()
	m.Step(x, 0.1)
	return dev.ComputeBusyUntil() - mid
}

// Free releases both replicas.
func (h *AE) Free() {
	h.phi.Free()
	h.host.Free()
}

// PhiBatch and HostBatch report the per-device shard sizes.
func (h *AE) PhiBatch() int  { return h.phiBatch }
func (h *AE) HostBatch() int { return h.hostBatch }

// Step runs one combined update: shard gradients on both devices, exchange
// and average, apply. x must be Batch×Visible host data (may be nil for
// model-only devices). It returns the average reconstruction error across
// both shards (0 when the devices are model-only).
func (h *AE) Step(x *tensor.Matrix, lr float64) float64 {
	phiDev, hostDev := h.phi.Ctx.Dev, h.host.Ctx.Dev

	// Ship each shard to its device, starting no earlier than the last
	// synchronization point.
	xPhi := phiDev.MustAlloc(h.phiBatch, h.Cfg.Model.Visible)
	xHost := hostDev.MustAlloc(h.hostBatch, h.Cfg.Model.Visible)
	defer phiDev.Free(xPhi)
	defer hostDev.Free(xHost)
	if phiDev.Numeric {
		phiDev.CopyIn(xPhi, x.RowsView(0, h.phiBatch).Contiguous(), h.syncedAt)
		hostDev.CopyIn(xHost, x.RowsView(h.phiBatch, h.Cfg.Batch).Contiguous(), h.syncedAt)
	} else {
		phiDev.CopyIn(xPhi, nil, h.syncedAt)
		hostDev.CopyIn(xHost, nil, h.syncedAt)
	}

	// Shard gradients (concurrent timelines).
	h.phi.Forward(xPhi)
	reconPhi := h.phi.Ctx.SumSquaredDiff(h.phi.Output(), xPhi)
	h.phi.Backward(xPhi)
	h.host.Forward(xHost)
	reconHost := h.host.Ctx.SumSquaredDiff(h.host.Output(), xHost)
	h.host.Backward(xHost)

	// Exchange: the coprocessor ships its gradients to the host and
	// receives the combined ones; the host-side cost is negligible (no
	// PCIe on that arch). Numerically, average the gradients with shard
	// weights and write the result into both replicas.
	wPhi := float64(h.phiBatch) / float64(h.Cfg.Batch)
	wHost := 1 - wPhi
	outDone := h.exchangeOut()
	if phiDev.Numeric {
		h.combineGradients(wPhi, wHost)
	}
	inDone := h.exchangeIn(outDone)

	// Both replicas apply the identical averaged update.
	h.phi.ApplyUpdate(lr)
	h.host.ApplyUpdate(lr)

	// Synchronization barrier: next step starts when both devices and the
	// exchange are done.
	barrier := phiDev.Now()
	if t := hostDev.Now(); t > barrier {
		barrier = t
	}
	if inDone > barrier {
		barrier = inDone
	}
	h.syncedAt = barrier
	h.steps++

	if !phiDev.Numeric {
		return 0
	}
	return (reconPhi + reconHost) / (2 * float64(h.Cfg.Batch))
}

// exchangeOut charges the device→host gradient transfers on the Phi's PCIe
// engine and returns their completion time.
func (h *AE) exchangeOut() float64 {
	dev := h.phi.Ctx.Dev
	gw1, gb1, gw2, gb2 := h.phi.Gradients()
	end := 0.0
	for _, b := range []*device.Buffer{gw1, gb1, gw2, gb2} {
		if t := dev.CopyOut(b, hostMirror(dev, b)); t > end {
			end = t
		}
	}
	return end
}

// exchangeIn charges the host→device transfer of the combined gradients,
// starting no earlier than the outbound transfers and the host's compute.
func (h *AE) exchangeIn(earliest float64) float64 {
	dev := h.phi.Ctx.Dev
	if t := h.host.Ctx.Dev.Now(); t > earliest {
		earliest = t
	}
	gw1, gb1, gw2, gb2 := h.phi.Gradients()
	end := earliest
	for _, b := range []*device.Buffer{gw1, gb1, gw2, gb2} {
		if t := dev.CopyIn(b, hostMirror(dev, b), earliest); t > end {
			end = t
		}
	}
	return end
}

// hostMirror returns a host matrix sized like the buffer for numeric
// transfers (nil in model-only mode). For the outbound path the contents
// are the buffer's; for the inbound path CopyIn overwrites the device copy
// with the (already combined) values, so mirroring the current contents is
// correct.
func hostMirror(dev *device.Device, b *device.Buffer) *tensor.Matrix {
	if !dev.Numeric {
		return nil
	}
	return b.Mat.Clone()
}

// combineGradients averages the replica gradients in place (numeric mode):
// g ← wPhi·gPhi + wHost·gHost on both devices.
func (h *AE) combineGradients(wPhi, wHost float64) {
	pGw1, pGb1, pGw2, pGb2 := h.phi.Gradients()
	hGw1, hGb1, hGw2, hGb2 := h.host.Gradients()
	pairs := []struct{ p, hst *device.Buffer }{
		{pGw1, hGw1}, {pGb1, hGb1}, {pGw2, hGw2}, {pGb2, hGb2},
	}
	for _, pair := range pairs {
		combined := pair.p.Mat.Clone()
		for i := 0; i < combined.Rows; i++ {
			cr, hr := combined.RowView(i), pair.hst.Mat.RowView(i)
			for j := range cr {
				cr[j] = wPhi*cr[j] + wHost*hr[j]
			}
		}
		pair.p.Mat.CopyFrom(combined)
		pair.hst.Mat.CopyFrom(combined)
	}
}

// SimSeconds returns the synchronized simulated time of the hybrid run.
func (h *AE) SimSeconds() float64 { return h.syncedAt }

// Steps returns the number of combined updates executed.
func (h *AE) Steps() int { return h.steps }

// Download returns the (synchronized) parameters from the Phi replica.
func (h *AE) Download() *autoencoder.Params { return h.phi.Download() }

// Run builds the hybrid pair from cfg, trains it over a streaming source
// for the given number of iterations, splitting each batch, and returns
// the synchronized simulated time and final loss. It is the hybrid
// counterpart of the single-device core.Trainer for benchmarking.
func Run(phiCtx, hostCtx *blas.Context, cfg AEConfig, src data.Source, iterations int, lr float64) (simSeconds, finalLoss float64, err error) {
	h, err := BuildAE(phiCtx, hostCtx, cfg)
	if err != nil {
		return 0, 0, err
	}
	defer h.Free()
	var batch *tensor.Matrix
	if phiCtx.Dev.Numeric {
		batch = tensor.NewMatrix(cfg.Batch, cfg.Model.Visible)
	}
	loss := 0.0
	for step := 0; step < iterations; step++ {
		if batch != nil {
			src.Chunk(step*cfg.Batch, cfg.Batch, batch)
		}
		loss = h.Step(batch, lr)
	}
	return h.SimSeconds(), loss, nil
}
