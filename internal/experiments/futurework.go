package experiments

import (
	"fmt"

	"phideep/internal/autoencoder"
	"phideep/internal/cluster"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/hybrid"
	"phideep/internal/sim"
	"phideep/internal/tune"
)

// HybridCrossover quantifies the paper's §VI caveat on host+Phi
// cooperative execution: the per-step PCIe gradient exchange "can be
// intolerable when the model becomes large", and on small models the Phi
// shard's fixed launch overhead caps the gain near zero — a measured
// negative result for data-parallel SGD on this platform pair.
func HybridCrossover() *Table {
	t := &Table{
		Title:   "Future work (§VI): hybrid Xeon + Xeon Phi data-parallel training",
		Note:    "AE, batch 1000, 20 iterations; host = 2x E5620 with vendor BLAS; gradient exchange over PCIe each step; gain <= 1 quantifies the paper's caveat",
		Columns: []string{"network (v x h)", "Phi only", "hybrid", "hybrid gain", "Phi shard"},
	}
	for _, n := range []NetworkSize{{64, 256}, {256, 1024}, {1024, 4096}, {2048, 8192}} {
		const batch, iters = 1000, 20
		model := autoencoder.Config{Visible: n.Visible, Hidden: n.Hidden, Batch: batch, Seed: 1}

		// Phi-only baseline.
		soloDev := device.New(sim.XeonPhi5110P(), false, nil)
		soloCtx := core.NewContext(soloDev, core.Improved, 0, 1)
		m, err := autoencoder.Build(soloCtx, model)
		if err != nil {
			panic(err)
		}
		tr := &core.Trainer{Dev: soloDev, Cfg: core.TrainConfig{Iterations: iters, LR: 0.1, Prefetch: true}}
		solo, err := tr.Run(m, data.Null{D: n.Visible, N: batch * iters})
		if err != nil {
			panic(err)
		}

		// Hybrid pair.
		phiCtx := core.NewContext(device.New(sim.XeonPhi5110P(), false, nil), core.Improved, 0, 1)
		hostCtx := core.NewContext(device.New(sim.XeonE5620Dual(), false, nil), core.OpenMPMKL, 0, 2)
		cfg := hybrid.AEConfig{Model: model, Batch: batch, Seed: 1}
		h, err := hybrid.BuildAE(phiCtx, hostCtx, cfg)
		if err != nil {
			panic(err)
		}
		share := fmt.Sprintf("%d/%d", h.PhiBatch(), batch)
		h.Free()
		ht, _, err := hybrid.Run(phiCtx, hostCtx, cfg, data.Null{D: n.Visible, N: batch * iters}, iters, 0.1)
		if err != nil {
			panic(err)
		}
		t.AddRow(n.String(), secs(solo.SimSeconds), secs(ht), ratio(solo.SimSeconds/ht), share)
	}
	return t
}

// AutoTune reproduces the paper's §VI thread-balance future work: for each
// workload regime the tuner searches cores × threads/core × fusion against
// the cost model and reports its choice next to the hand-picked default
// (all cores, all threads, fused).
func AutoTune() *Table {
	t := &Table{
		Title:   "Future work (§VI): automatic parallelism/synchronization balance",
		Note:    "grid search over cores x threads/core x fusion on the cost model; default = 60 cores x 4 threads, fused",
		Columns: []string{"workload", "default", "tuned", "tuned config", "gain"},
	}
	workloads := []struct {
		name string
		w    tune.AEWorkload
	}{
		{"AE 1024x4096, batch 1000", tune.AEWorkload{
			Arch: sim.XeonPhi5110P(), Model: autoencoder.Config{Visible: 1024, Hidden: 4096},
			Batch: 1000, Iterations: 20, DatasetExamples: 100000}},
		{"AE 1024x4096, batch 200 (launch-bound)", tune.AEWorkload{
			Arch: sim.XeonPhi5110P(), Model: autoencoder.Config{Visible: 1024, Hidden: 4096},
			Batch: 200, Iterations: 100, DatasetExamples: 100000}},
		{"AE 256x512, batch 200 (small model)", tune.AEWorkload{
			Arch: sim.XeonPhi5110P(), Model: autoencoder.Config{Visible: 256, Hidden: 512},
			Batch: 200, Iterations: 100, DatasetExamples: 100000}},
	}
	for _, wl := range workloads {
		res, err := wl.w.Tune()
		if err != nil {
			panic(err)
		}
		def, err := wl.w.Objective()(tune.Candidate{Level: core.OpenMPMKL, Cores: 60, ThreadsPerCore: 4, Fuse: true})
		if err != nil {
			panic(err)
		}
		t.AddRow(wl.name, secs(def), secs(res.Best.SimSeconds), res.Best.Candidate.String(), ratio(def/res.Best.SimSeconds))
	}
	return t
}

// ClusterVsPhi answers the paper's framing question (§I/§III): how much
// commodity cluster does one coprocessor replace? N dual-socket Xeon nodes
// train data-parallel with parameter averaging over Gigabit Ethernet; the
// coprocessor row is the single Phi at the Improved level. On a fat model
// the synchronous cluster hits the communication wall the paper's pitch
// rests on.
func ClusterVsPhi() *Table {
	t := &Table{
		Title:   "Positioning: one Xeon Phi vs a commodity cluster (parameter averaging)",
		Note:    "AE 1024 x 4096, global batch 1000, 20 steps; nodes = 2x E5620 over 1 GbE; simulated time",
		Columns: []string{"configuration", "time", "vs one node", "sync rounds"},
	}
	model := autoencoder.Config{Visible: 1024, Hidden: 4096}
	runCluster := func(nodes, syncEvery int) (float64, int) {
		cfg := cluster.Config{
			Model: model, Nodes: nodes, GlobalBatch: nodes * (1000 / nodes),
			SyncEvery: syncEvery, Net: cluster.GigabitEthernet(),
		}
		cl, err := cluster.New(sim.XeonE5620Dual(), core.OpenMPMKL, cfg, false, 1)
		if err != nil {
			panic(err)
		}
		defer cl.Free()
		for i := 0; i < 20; i++ {
			cl.Step(nil, 0.1)
		}
		return cl.SimSeconds(), cl.Syncs()
	}
	oneNode, _ := runCluster(1, 1)
	t.AddRow("1 node", secs(oneNode), ratio(1), "0")
	for _, cse := range []struct {
		nodes, sync int
		label       string
	}{
		{4, 1, "4 nodes, sync every step"},
		{4, 10, "4 nodes, sync every 10 steps"},
		{16, 10, "16 nodes, sync every 10 steps"},
	} {
		tm, syncs := runCluster(cse.nodes, cse.sync)
		t.AddRow(cse.label, secs(tm), ratio(oneNode/tm), fmt.Sprintf("%d", syncs))
	}

	// The single coprocessor.
	arch, lvl := phiImproved()
	phi := Job{
		Arch: arch, Level: lvl, Model: AE,
		Visible: model.Visible, Hidden: model.Hidden,
		Batch: 1000, DatasetExamples: 20000, Iterations: 20,
		Prefetch: true, Seed: 1,
	}.MustRun().SimSeconds
	t.AddRow("1 Xeon Phi 5110P", secs(phi), ratio(oneNode/phi), "0")
	return t
}
