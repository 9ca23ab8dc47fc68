package hybrid

import (
	"math"
	"testing"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/rng"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

func newPair(numeric bool) (phiCtx, hostCtx *blas.Context) {
	phiDev := device.New(sim.XeonPhi5110P(), numeric, nil)
	hostDev := device.New(sim.XeonE5620Dual(), numeric, nil)
	return core.NewContext(phiDev, core.Improved, 0, 1), core.NewContext(hostDev, core.OpenMPMKL, 0, 2)
}

// TestHybridMatchesSingleDeviceGradient: with the sparsity penalty off (its
// ρ̂ is a per-shard statistic), the weighted gradient exchange must make the
// hybrid pair follow exactly the trajectory of a single device training on
// the full batch.
func TestHybridMatchesSingleDeviceGradient(t *testing.T) {
	model := autoencoder.Config{Visible: 12, Hidden: 7, Lambda: 1e-3, Batch: 10, Seed: 9}
	cfg := AEConfig{Model: model, Batch: model.Batch, PhiShare: 0.6, Seed: model.Seed}
	phiCtx, hostCtx := newPair(true)
	h, err := BuildAE(phiCtx, hostCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Free()

	// Single-device oracle with identical initialization.
	soloDev := device.New(sim.XeonPhi5110P(), true, nil)
	soloCtx := core.NewContext(soloDev, core.Improved, 0, 3)
	solo, err := autoencoder.Build(soloCtx, model)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(cfg.Batch, 12).Randomize(rng.New(4), 0.1, 0.9)
	dx := soloDev.MustAlloc(cfg.Batch, 12)
	soloDev.CopyIn(dx, x, 0)

	for step := 0; step < 3; step++ {
		h.Step(x, 0.4)
		solo.Step(dx, 0.4)
		hp, sp := h.Download(), solo.Download()
		if d := tensor.MaxAbsDiff(hp.W1, sp.W1); d > 1e-12 {
			t.Fatalf("step %d: hybrid W1 diverged from single device by %g", step, d)
		}
		if d := tensor.MaxAbsDiff(hp.W2, sp.W2); d > 1e-12 {
			t.Fatalf("step %d: hybrid W2 diverged by %g", step, d)
		}
		if !tensor.EqualVec(hp.B1, sp.B1, 1e-12) || !tensor.EqualVec(hp.B2, sp.B2, 1e-12) {
			t.Fatalf("step %d: hybrid biases diverged", step)
		}
	}
}

// TestHybridReplicasStayInSync: both replicas hold identical parameters
// after every step.
func TestHybridReplicasStayInSync(t *testing.T) {
	cfg := AEConfig{
		Model: autoencoder.Config{Visible: 9, Hidden: 5, Beta: 0.2, Rho: 0.1},
		Batch: 8, Seed: 7,
	}
	phiCtx, hostCtx := newPair(true)
	h, err := BuildAE(phiCtx, hostCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Free()
	x := tensor.NewMatrix(cfg.Batch, 9).Randomize(rng.New(5), 0.1, 0.9)
	for step := 0; step < 3; step++ {
		h.Step(x, 0.3)
		p := h.phi.Download()
		q := h.host.Download()
		if d := tensor.MaxAbsDiff(p.W1, q.W1); d > 1e-12 {
			t.Fatalf("step %d: replicas out of sync by %g", step, d)
		}
	}
}

// TestHybridLearns: the hybrid pair reduces reconstruction error.
func TestHybridLearns(t *testing.T) {
	cfg := AEConfig{
		Model: autoencoder.Config{Visible: 16, Hidden: 8, Lambda: 1e-6},
		Batch: 20, Seed: 3,
	}
	phiCtx, hostCtx := newPair(true)
	h, err := BuildAE(phiCtx, hostCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Free()
	// Compressible rank-2 data.
	u := tensor.NewMatrix(20, 2).Randomize(rng.New(6), -2, 2)
	v := tensor.NewMatrix(2, 16).Randomize(rng.New(7), -2, 2)
	x := tensor.NewMatrix(20, 16)
	for i := 0; i < 20; i++ {
		for j := 0; j < 16; j++ {
			s := u.At(i, 0)*v.At(0, j) + u.At(i, 1)*v.At(1, j)
			x.Set(i, j, 1/(1+math.Exp(-s)))
		}
	}
	first := h.Step(x, 1.0)
	var last float64
	for i := 0; i < 400; i++ {
		last = h.Step(x, 1.0)
	}
	if !(last < 0.5*first) {
		t.Fatalf("hybrid training did not learn: %g → %g", first, last)
	}
}

// TestHybridCrossover quantifies the paper's §VI caveat: on small models
// the hybrid can at best match the Phi (the launch overhead of the Phi
// shard does not shrink), and on large models the gradient exchange makes
// it clearly lose.
func TestHybridCrossover(t *testing.T) {
	hybridVsPhi := func(visible, hidden, batch, iters int) (hybridT, phiT float64) {
		phiCtx, hostCtx := newPair(false)
		model := autoencoder.Config{Visible: visible, Hidden: hidden, Batch: batch, Seed: 1}
		cfg := AEConfig{Model: model, Batch: batch, Seed: 1}
		ht, _, err := Run(phiCtx, hostCtx, cfg, data.Null{D: visible, N: batch * iters}, iters, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		// Phi-only baseline, same combined batch.
		soloDev := device.New(sim.XeonPhi5110P(), false, nil)
		soloCtx := core.NewContext(soloDev, core.Improved, 0, 1)
		m, err := autoencoder.Build(soloCtx, model)
		if err != nil {
			t.Fatal(err)
		}
		tr := &core.Trainer{Dev: soloDev, Cfg: core.TrainConfig{Iterations: iters, LR: 0.1, Prefetch: true}}
		res, err := tr.Run(m, data.Null{D: visible, N: batch * iters})
		if err != nil {
			t.Fatal(err)
		}
		return ht, res.SimSeconds
	}

	smallH, smallP := hybridVsPhi(64, 256, 1000, 20)
	largeH, largeP := hybridVsPhi(2048, 8192, 1000, 20)

	// Small model: the hybrid must be within a few percent of the Phi
	// (the splitter parks nearly the whole batch on the better device).
	if !(smallH < 1.1*smallP) {
		t.Errorf("hybrid far worse than Phi on the small model: hybrid %g vs phi %g", smallH, smallP)
	}
	// Large model: the exchange dominates — hybrid clearly loses.
	if !(largeH > 1.5*largeP) {
		t.Errorf("gradient exchange should make hybrid clearly lose on the large model: hybrid %g vs phi %g", largeH, largeP)
	}
}

func TestHybridValidation(t *testing.T) {
	phiCtx, hostCtx := newPair(false)
	base := AEConfig{Model: autoencoder.Config{Visible: 8, Hidden: 4}, Batch: 4, Seed: 1}
	bad := base
	bad.Batch = 1
	if _, err := BuildAE(phiCtx, hostCtx, bad); err == nil {
		t.Error("unsplittable batch must fail")
	}
	bad = base
	bad.PhiShare = 1.5
	if _, err := BuildAE(phiCtx, hostCtx, bad); err == nil {
		t.Error("invalid share must fail")
	}
	// Swapped contexts: the "phi" side has no PCIe link.
	if _, err := BuildAE(hostCtx, phiCtx, base); err == nil {
		t.Error("host device on the phi side must fail")
	}
	bad = base
	bad.Model.Visible = 0
	if _, err := BuildAE(phiCtx, hostCtx, bad); err == nil {
		t.Error("invalid model config must fail")
	}
}

func TestThroughputShareFavorsTheFasterDevice(t *testing.T) {
	phiCtx, hostCtx := newPair(false)
	cfg := AEConfig{Model: autoencoder.Config{Visible: 1024, Hidden: 4096}, Batch: 1000, Seed: 1}
	share := throughputShare(phiCtx, hostCtx, cfg)
	if !(share > 0.7 && share < 1) {
		t.Fatalf("share %g should strongly favor the Phi on a large model", share)
	}
	h, err := BuildAE(phiCtx, hostCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Free()
	if h.PhiBatch()+h.HostBatch() != cfg.Batch {
		t.Fatal("shards do not partition the batch")
	}
	if h.PhiBatch() <= h.HostBatch() {
		t.Fatal("Phi should take the larger shard")
	}
}
