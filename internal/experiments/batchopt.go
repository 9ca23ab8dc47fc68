package experiments

import (
	"fmt"

	"phideep/internal/autoencoder"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/opt"
	"phideep/internal/sim"
	"phideep/internal/tensor"
)

// BatchMethods reproduces the paper's §III trade-off between online SGD and
// the batch methods (L-BFGS, CG): "these methods make it easier to
// parallelize the deep learning algorithms. However, these methods are
// slower to converge since one update of parameters involves much more
// computations than SGD." Both optimizers run numerically on the simulated
// Phi over the same dataset; the table reports the full-dataset objective
// reached per simulated second.
func BatchMethods() *Table {
	const (
		visible, hidden = 64, 24
		examples        = 800
		batch           = 100
		seed            = 21
	)
	cfg := autoencoder.Config{Visible: visible, Hidden: hidden, Lambda: 1e-4, Batch: batch, Seed: seed}
	src := data.NewDigits(8, examples, 5, 0.03)
	full := data.Materialize(src)

	t := &Table{
		Title:   "§III study: online SGD vs batch methods on the simulated Xeon Phi",
		Note:    fmt.Sprintf("AE %dx%d, %d examples, batch %d; full-dataset objective; simulated time", visible, hidden, examples, batch),
		Columns: []string{"method", "parameter updates", "dataset passes", "final objective", "simulated time"},
	}

	evalCost := func(p *autoencoder.Params) float64 {
		return autoencoder.CostGrad(cfg, p, full, nil)
	}

	// --- Online minibatch SGD (the paper's method).
	{
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		ctx := core.NewContext(dev, core.Improved, 0, seed)
		m, err := autoencoder.Build(ctx, cfg)
		if err != nil {
			panic(err)
		}
		tr := &core.Trainer{Dev: dev, Cfg: core.TrainConfig{Epochs: 6, LR: 0.8, Prefetch: true}}
		res, err := tr.Run(m, src)
		if err != nil {
			panic(err)
		}
		t.AddRow("online SGD", fmt.Sprintf("%d", res.Steps), "6",
			fmt.Sprintf("%.4f", evalCost(m.Download())), secs(res.SimSeconds))
	}

	// --- Batch methods: every gradient evaluation streams the dataset
	// through the device.
	for _, method := range []string{"L-BFGS", "CG"} {
		dev := device.New(sim.XeonPhi5110P(), true, nil)
		ctx := core.NewContext(dev, core.Improved, 0, seed)
		m, err := autoencoder.Build(ctx, cfg)
		if err != nil {
			panic(err)
		}
		obj, theta, err := autoencoder.NewBatchObjective(m, data.InMemory{X: full})
		if err != nil {
			panic(err)
		}
		wrapped := func(th, g tensor.Vector) float64 { return obj.Eval(th, g) }
		var res opt.Result
		if method == "L-BFGS" {
			res = opt.LBFGS(wrapped, theta, opt.LBFGSConfig{MaxIter: 6})
		} else {
			res = opt.CG(wrapped, theta, opt.CGConfig{MaxIter: 6})
		}
		t.AddRow(method, fmt.Sprintf("%d", res.Iterations),
			fmt.Sprintf("%d", res.Evaluations),
			fmt.Sprintf("%.4f", res.Cost), secs(dev.Now()))
		obj.Free()
	}
	return t
}
