// Finetune: the full pipeline the paper's pre-training exists for.
//
//  1. Pre-train a stacked Autoencoder on *unlabeled* digits (Fig. 1).
//  2. Fine-tune a deep softmax classifier initialized from the stack on a
//     small *labeled* subset.
//  3. Compare against the same network fine-tuned from random
//     initialization.
//
// With scarce labels, unsupervised pre-training should give the classifier
// a head start — the classic Hinton & Salakhutdinov result that motivates
// the whole paper.
//
//	go run ./examples/finetune
package main

import (
	"fmt"
	"log"

	"phideep"
)

const (
	side      = 16
	dim       = side * side
	unlabeled = 4000 // pre-training set (no labels used)
	labeled   = 300  // scarce labeled set
	testSize  = 1000
	batch     = 50
	classes   = 10
	ftEpochs  = 60
	ftLR      = 0.4
	hidden1   = 128
	hidden2   = 64
)

func main() {
	mach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
	defer mach.Close()
	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, 33)

	// 1. Unsupervised pre-training on plentiful unlabeled digits.
	pretrainSrc := phideep.NewDigits(side, unlabeled, 3, 0.03)
	stackCfg := phideep.StackConfig{
		Sizes:  []int{dim, hidden1, hidden2},
		Lambda: 1e-5, Beta: 0.1, Rho: 0.1,
		Batch: 100, LR: 1.0,
	}
	pre, err := phideep.PretrainAutoencoders(ctx,
		phideep.TrainConfig{Epochs: 8, LR: 1.0, Prefetch: true},
		stackCfg, pretrainSrc, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pre-trained %d layers on %d unlabeled digits (%.1f simulated s)\n",
		len(pre.Layers), unlabeled, pre.SimSeconds)

	// Labeled data: a small training split and a held-out test split.
	trainX, trainY := labeledSet(7001, labeled)
	testX, testY := labeledSet(9001, testSize)

	cfg := phideep.MLPConfig{
		Sizes:    []int{dim, hidden1, hidden2, classes},
		Lambda:   1e-4,
		Momentum: 0.9,
		Batch:    batch,
		Seed:     2,
	}

	// 2./3. Fine-tune from the pre-trained stack and from scratch.
	accPre := finetune(mach, cfg, pre, trainX, trainY, testX, testY)
	accRnd := finetune(mach, cfg, nil, trainX, trainY, testX, testY)

	fmt.Printf("\ntest accuracy after fine-tuning on only %d labeled digits:\n", labeled)
	fmt.Printf("  random initialization:      %.1f%%\n", 100*accRnd)
	fmt.Printf("  pre-trained initialization: %.1f%%\n", 100*accPre)
	if accPre > accRnd {
		fmt.Printf("  unsupervised pre-training is worth %+.1f points here\n", 100*(accPre-accRnd))
	} else {
		fmt.Println("  (pre-training did not help on this draw)")
	}
}

// labeledSet renders n labeled digit images.
func labeledSet(seed uint64, n int) (*phideep.Matrix, *phideep.Matrix) {
	src := phideep.NewDigits(side, n, seed, 0.03)
	x := phideep.NewMatrix(n, dim)
	src.Chunk(0, n, x)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = src.Label(i)
	}
	y := phideep.NewMatrix(n, classes)
	phideep.OneHot(labels, y)
	return x, y
}

// finetune trains the classifier (warm-started from pre when non-nil) on
// the labeled set and returns held-out accuracy.
func finetune(mach *phideep.Machine, cfg phideep.MLPConfig, pre *phideep.StackResult,
	trainX, trainY, testX, testY *phideep.Matrix) float64 {

	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, 55)
	m, err := phideep.BuildMLP(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Free()
	if pre != nil {
		if err := m.InitFromStack(pre); err != nil {
			log.Fatal(err)
		}
	}

	dev := mach.Dev
	dx := dev.MustAlloc(batch, dim)
	dy := dev.MustAlloc(batch, classes)
	defer dev.Free(dx)
	defer dev.Free(dy)

	n := trainX.Rows
	for epoch := 0; epoch < ftEpochs; epoch++ {
		for start := 0; start+batch <= n; start += batch {
			dev.CopyIn(dx, trainX.RowsView(start, start+batch).Contiguous(), 0)
			dev.CopyIn(dy, trainY.RowsView(start, start+batch).Contiguous(), 0)
			m.StepLabeled(dx, dy, ftLR)
		}
	}

	// Held-out accuracy, batch by batch.
	correct, total := 0.0, 0
	for start := 0; start+batch <= testX.Rows; start += batch {
		dev.CopyIn(dx, testX.RowsView(start, start+batch).Contiguous(), 0)
		dev.CopyIn(dy, testY.RowsView(start, start+batch).Contiguous(), 0)
		correct += m.Accuracy(dx, dy) * batch
		total += batch
	}
	return correct / float64(total)
}
