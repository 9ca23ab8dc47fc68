// Features: learn sparse features from natural-image patches — the classic
// sparse-autoencoder workload the paper's datasets come from — two ways:
//
//  1. minibatch SGD on the simulated Xeon Phi (the paper's method), and
//  2. batch L-BFGS on the host reference implementation (the
//     easier-to-parallelize alternative the paper's §III discusses),
//
// then render the strongest learned receptive fields as ASCII and report
// which optimizer reached the lower objective per gradient evaluation.
//
//	go run ./examples/features
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"phideep"
)

const (
	patchSide = 8
	visible   = patchSide * patchSide
	hidden    = 25
	examples  = 4000
	batch     = 200
)

func main() {
	cfg := phideep.AutoencoderConfig{
		Visible: visible, Hidden: hidden,
		Lambda: 1e-4, Beta: 3, Rho: 0.05,
		Batch: batch, Seed: 3,
	}
	patches := phideep.NewNaturalPatches(patchSide, examples, 31)

	// --- Method 1: the paper's minibatch SGD on the simulated Phi.
	mach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
	defer mach.Close()
	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, 17)
	ae, err := phideep.BuildAutoencoder(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	trainer := &phideep.Trainer{Dev: mach.Dev, Cfg: phideep.TrainConfig{
		Epochs: 15, LR: 1.0, Prefetch: true,
	}}
	res, err := trainer.Run(ae, patches)
	if err != nil {
		log.Fatal(err)
	}
	sgdParams := ae.Download()
	fmt.Printf("SGD on simulated Xeon Phi: %d updates, loss %.4f -> %.4f, %.2f simulated s\n",
		res.Steps, res.FirstLoss, res.FinalLoss, res.SimSeconds)

	// --- Method 2: batch L-BFGS on the host reference model.
	x := phideep.NewMatrix(examples, visible)
	patches.Chunk(0, examples, x)
	p := phideep.NewAutoencoderParams(cfg, 3)
	obj, theta := phideep.AutoencoderObjective(cfg, p, x)
	start := phideep.AutoencoderCost(cfg, p, x)
	opt := phideep.LBFGS(obj, theta, phideep.LBFGSConfig{MaxIter: 40})
	fmt.Printf("L-BFGS on host reference:  %d iterations (%d evaluations), cost %.4f -> %.4f\n",
		opt.Iterations, opt.Evaluations, start, opt.Cost)

	// --- Render the strongest receptive fields learned by L-BFGS.
	fmt.Println("\nstrongest learned receptive fields (L-BFGS weights, ASCII):")
	renderFields(p.W1, 5)

	// Sanity: both methods should produce sparse codes near ρ.
	fmt.Printf("\nmean hidden activation (target ρ = %.2f): SGD %.3f, L-BFGS %.3f\n",
		cfg.Rho, meanActivation(cfg, sgdParams, x), meanActivation(cfg, p, x))
}

// renderFields prints the top-k hidden units' input weights as ASCII
// patches, strongest first.
func renderFields(w1 *phideep.Matrix, k int) {
	type unit struct {
		j    int
		norm float64
	}
	units := make([]unit, w1.Cols)
	for j := range units {
		s := 0.0
		for i := 0; i < w1.Rows; i++ {
			v := w1.At(i, j)
			s += v * v
		}
		units[j] = unit{j, math.Sqrt(s)}
	}
	sort.Slice(units, func(a, b int) bool { return units[a].norm > units[b].norm })
	shades := []byte(" .:-=+*#%@")
	for rank := 0; rank < k && rank < len(units); rank++ {
		j := units[rank].j
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < w1.Rows; i++ {
			v := w1.At(i, j)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		span := hi - lo
		if span == 0 {
			span = 1
		}
		fmt.Printf("unit %d (|w| = %.3f):\n", j, units[rank].norm)
		for y := 0; y < patchSide; y++ {
			line := make([]byte, patchSide)
			for x := 0; x < patchSide; x++ {
				v := (w1.At(y*patchSide+x, j) - lo) / span
				idx := int(v * float64(len(shades)-1))
				line[x] = shades[idx]
			}
			fmt.Printf("  %s\n", line)
		}
	}
}

// meanActivation computes the average hidden activation of the model on x.
func meanActivation(cfg phideep.AutoencoderConfig, p *phideep.AutoencoderParams, x *phideep.Matrix) float64 {
	total := 0.0
	for i := 0; i < x.Rows; i++ {
		row := x.RowView(i)
		for j := 0; j < cfg.Hidden; j++ {
			s := p.B1[j]
			for k, xv := range row {
				s += xv * p.W1.At(k, j)
			}
			total += 1 / (1 + math.Exp(-s))
		}
	}
	return total / float64(x.Rows*cfg.Hidden)
}
