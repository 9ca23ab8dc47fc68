// Quickstart: train one Sparse Autoencoder on synthetic handwritten digits
// on the simulated Xeon Phi, numerically (real math + simulated clock), and
// print the learning curve, the simulated time, and what the same run would
// have cost at the un-optimized Baseline level.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"phideep"
)

func main() {
	// A numeric machine really computes; the Phi clock is simulated.
	mach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
	defer mach.Close()

	// Fully-optimized execution (MKL-grade kernels + fusion + Fig. 6
	// scheduling) on all 60 cores.
	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, 42)

	// 16×16 digit images, 8000 examples; a 256→64 sparse autoencoder.
	const side, examples, batch = 16, 8000, 100
	ae, err := phideep.BuildAutoencoder(ctx, phideep.AutoencoderConfig{
		Visible: side * side,
		Hidden:  64,
		Lambda:  1e-4, // L2 weight decay (Eq. 4)
		Beta:    0.5,  // sparsity penalty weight (Eq. 5)
		Rho:     0.05, // target mean activation
		Batch:   batch,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}

	trainer := &phideep.Trainer{Dev: mach.Dev, Cfg: phideep.TrainConfig{
		Epochs:   5,
		LR:       0.5,
		Prefetch: true, // Fig. 5 transfer overlap on the simulated clock
	}}
	res, err := trainer.Run(ae, phideep.NewDigits(side, examples, 7, 0.05))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Sparse Autoencoder 256 -> 64 on simulated Xeon Phi 5110P")
	for i, l := range res.EpochLoss {
		fmt.Printf("  epoch %d: reconstruction error %.4f\n", i+1, l)
	}
	fmt.Printf("  %d updates over %d examples in %.3f simulated seconds\n",
		res.Steps, res.Examples, res.SimSeconds)
	fmt.Printf("  device: %d kernel launches, %.3g modeled flops, transfers busy %.3f s\n",
		res.Device.Ops, res.Device.Flops, res.Device.TransferBusy)

	// Part two: a paper-scale workload (1024×4096, batch 1000, 100 k
	// examples), timing-only — the device charges simulated time without
	// touching the floats, so this models in milliseconds what the Phi
	// would spend minutes on. Comparing the fully-optimized run against
	// the un-optimized sequential baseline reproduces the Table I gap.
	fmt.Println()
	fmt.Println("Paper-scale workload 1024 -> 4096, batch 1000, 100k examples (timing-only):")
	var times [2]float64
	for i, lvl := range []phideep.OptLevel{phideep.Improved, phideep.Baseline} {
		m2 := phideep.NewMachine(phideep.XeonPhi5110P())
		ctx2 := phideep.NewContext(m2.Dev, lvl, 0, 42)
		big, err := phideep.BuildAutoencoder(ctx2, phideep.AutoencoderConfig{
			Visible: 1024, Hidden: 4096, Lambda: 1e-4, Beta: 0.1, Rho: 0.05,
			Batch: 1000, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		tr2 := &phideep.Trainer{Dev: m2.Dev, Cfg: phideep.TrainConfig{Epochs: 1, LR: 0.1, Prefetch: true}}
		r2, err := tr2.Run(big, timingSource{dim: 1024, n: 100000})
		if err != nil {
			log.Fatal(err)
		}
		times[i] = r2.SimSeconds
		name := "fully optimized (Improved OpenMP+MKL)"
		if lvl == phideep.Baseline {
			name = "un-optimized sequential baseline"
		}
		fmt.Printf("  %-40s %10.1f simulated seconds\n", name, r2.SimSeconds)
	}
	fmt.Printf("  full optimization ladder speedup: %.0fx\n", times[1]/times[0])
}

// timingSource is a geometry-only Source for timing runs: on a timing-only
// device the example values are never read.
type timingSource struct{ dim, n int }

func (s timingSource) Dim() int                                { return s.dim }
func (s timingSource) Len() int                                { return s.n }
func (s timingSource) Chunk(start, n int, dst *phideep.Matrix) {}
