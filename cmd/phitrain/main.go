// Command phitrain trains a Sparse Autoencoder, an RBM, a small im2col
// convnet, or a greedy stack of AEs/RBMs on a simulated platform, streaming
// a synthetic dataset through the paper's chunked loading pipeline.
//
// Examples:
//
//	phitrain -model ae -data digits -side 16 -hidden 64 -epochs 5
//	phitrain -model rbm -data digits -side 16 -hidden 100 -epochs 3
//	phitrain -model convnet -data digits -side 16 -classes 10 -epochs 5 \
//	         -export convnet.phck                          # then phiserve
//	phitrain -model stack -sizes 256,64,16 -data natural -side 16
//	phitrain -model ae -numeric=false -visible 1024 -hidden 4096 \
//	         -examples 1000000 -batch 1000 -epochs 1     # timing only
//	phitrain -model ae -epochs 5 -metrics report.json -stats
//	phitrain -model ae -epochs 50 -pprof localhost:6060  # live profiling
//
// With -numeric (the default) the run really computes on the host while the
// simulated Xeon Phi clock is accounted; with -numeric=false only the clock
// runs, which permits paper-scale geometries on any machine.
//
// Observability: -metrics writes a JSON run report (per-epoch wall time,
// examples/sec, GEMM counts and FLOPs, asm-vs-fallback micro-kernel path
// counts, simulated-vs-real engine seconds); -stats prints the same
// registry as an aligned end-of-run table; -pprof serves net/http/pprof
// for live CPU/heap profiling; -trace writes the *simulated* device
// timeline for chrome://tracing. DESIGN.md's "Observability" section
// explains how the wall-clock metrics and the simulated traces relate.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"phideep"
	"phideep/internal/metrics"
)

func main() {
	var (
		modelKind = flag.String("model", "ae", "ae | rbm | convnet | stack (stacked autoencoders) | dbn (stacked RBMs)")
		dataKind  = flag.String("data", "digits", "digits | natural | null")
		side      = flag.Int("side", 16, "image/patch side length (dim = side^2) for synthetic data")
		visible   = flag.Int("visible", 0, "input units (default side^2)")
		hidden    = flag.Int("hidden", 64, "hidden units (ae/rbm)")
		sizes     = flag.String("sizes", "", "comma-separated layer sizes for stack/dbn, input first")
		examples  = flag.Int("examples", 10000, "dataset size")
		batch     = flag.Int("batch", 100, "minibatch size")
		epochs    = flag.Int("epochs", 3, "training epochs (exclusive with -iters)")
		iters     = flag.Int("iters", 0, "training iterations (exclusive with -epochs)")
		lr        = flag.Float64("lr", 0.5, "learning rate")
		lambda    = flag.Float64("lambda", 1e-4, "L2 weight penalty")
		beta      = flag.Float64("beta", 0.1, "sparsity penalty weight (ae)")
		rho       = flag.Float64("rho", 0.05, "sparsity target (ae)")
		level     = flag.String("level", "improved", "baseline | openmp | mkl | improved")
		arch      = flag.String("arch", "phi", "phi | cpu1 | cpu4 | cpu8 | matlab")
		cores     = flag.Int("cores", 0, "physical core limit (0 = all)")
		numeric   = flag.Bool("numeric", true, "really compute (vs. timing-only)")
		prefetch  = flag.Bool("prefetch", true, "overlap chunk transfers with compute on the simulated clock (Fig. 5)")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		trace     = flag.String("trace", "", "write a Chrome trace-viewer JSON of the simulated device activity to this file")
		momentum  = flag.Float64("momentum", 0, "classical momentum coefficient [0,1)")
		corrupt   = flag.Float64("corruption", 0, "denoising input-corruption probability (ae/stack)")
		tied      = flag.Bool("tied", false, "tie decoder weights to the encoder (ae/stack)")
		gaussian  = flag.Bool("gaussian", false, "Gaussian visible units (rbm/dbn) for real-valued data")
		shuffle   = flag.Bool("shuffle", false, "reshuffle the dataset every epoch")
		adaptive  = flag.Bool("adaptive", false, "bold-driver adaptive learning rate (numeric runs)")
		metricsTo = flag.String("metrics", "", "write a JSON run report (wall-clock timings, throughput, kernel counters) to this file")
		stats     = flag.Bool("stats", false, "print the metrics registry as a table at the end of the run")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		checkpoint = flag.String("checkpoint", "", "periodically write crash-consistent training checkpoints to this file (for stack/dbn: the base of per-layer files)")
		ckptEvery  = flag.Int("checkpoint-every", 1, "checkpoint cadence in chunks")
		resume     = flag.String("resume", "", "resume training from this checkpoint file (starts fresh if the file does not exist)")
		export     = flag.String("export", "", "write the final trained model as a PHCK checkpoint to this file (ae/rbm; works without -checkpoint; phiserve loads it)")

		filters1 = flag.Int("filters1", 6, "convnet: first conv layer filter count")
		kernel1  = flag.Int("kernel1", 5, "convnet: first conv kernel side (odd)")
		filters2 = flag.Int("filters2", 12, "convnet: second conv layer filter count")
		kernel2  = flag.Int("kernel2", 3, "convnet: second conv kernel side (odd)")
		poolSz   = flag.Int("pool", 2, "convnet: max-pooling window/stride (applied twice)")
		classes  = flag.Int("classes", 10, "convnet: output classes")

		faultRate    = flag.Float64("fault-rate", 0, "per-attempt PCIe transfer fault probability [0,1) — 0 disables the fault model")
		faultSeed    = flag.Uint64("fault-seed", 1, "seed of the deterministic fault stream")
		faultPerm    = flag.Float64("fault-permanent", 0, "fraction of faults that are permanent (non-retryable) [0,1]")
		faultRetries = flag.Int("fault-retries", 0, "retry budget per transfer (0 = default 4)")
	)
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "phitrain: pprof:", err)
			}
		}()
	}
	opts := options{momentum: *momentum, corruption: *corrupt, tied: *tied,
		gaussian: *gaussian, shuffle: *shuffle, adaptive: *adaptive,
		filters1: *filters1, kernel1: *kernel1, filters2: *filters2,
		kernel2: *kernel2, pool: *poolSz, classes: *classes,
		metricsPath: *metricsTo, stats: *stats,
		checkpoint: *checkpoint, checkpointEvery: *ckptEvery, resume: *resume, export: *export,
		faultRate: *faultRate, faultSeed: *faultSeed,
		faultPermanent: *faultPerm, faultRetries: *faultRetries}
	if err := run(*modelKind, *dataKind, *side, *visible, *hidden, *sizes, *examples, *batch,
		*epochs, *iters, *lr, *lambda, *beta, *rho, *level, *arch, *cores, *numeric, *prefetch, *seed, *trace, opts); err != nil {
		fmt.Fprintln(os.Stderr, "phitrain:", err)
		os.Exit(1)
	}
}

func pickArch(name string) (*phideep.Arch, error) {
	switch name {
	case "phi":
		return phideep.XeonPhi5110P(), nil
	case "cpu1":
		return phideep.XeonE5620Core(), nil
	case "cpu4":
		return phideep.XeonE5620Full(), nil
	case "cpu8":
		return phideep.XeonE5620Dual(), nil
	case "matlab":
		return phideep.MatlabR2012a(), nil
	default:
		return nil, fmt.Errorf("unknown arch %q", name)
	}
}

func pickLevel(name string) (phideep.OptLevel, error) {
	switch name {
	case "baseline":
		return phideep.Baseline, nil
	case "openmp":
		return phideep.OpenMP, nil
	case "mkl":
		return phideep.OpenMPMKL, nil
	case "improved":
		return phideep.Improved, nil
	default:
		return 0, fmt.Errorf("unknown level %q", name)
	}
}

func pickData(kind string, side, dim, n int, seed uint64, numeric bool) (phideep.Source, error) {
	if !numeric {
		return nullSource{dim, n}, nil
	}
	switch kind {
	case "digits":
		if side < phideep.MinDigitsSide {
			return nil, fmt.Errorf("digits: -side %d is below the minimum %d", side, phideep.MinDigitsSide)
		}
		if side*side != dim {
			return nil, fmt.Errorf("digits: visible %d is not side^2 (%d)", dim, side*side)
		}
		return phideep.NewDigits(side, n, seed, 0.05), nil
	case "natural":
		if side < phideep.MinPatchSide {
			return nil, fmt.Errorf("natural: -side %d is below the minimum %d", side, phideep.MinPatchSide)
		}
		if side*side != dim {
			return nil, fmt.Errorf("natural: visible %d is not side^2 (%d)", dim, side*side)
		}
		return phideep.NewNaturalPatches(side, n, seed), nil
	case "null":
		return nullSource{dim, n}, nil
	default:
		return nil, fmt.Errorf("unknown data kind %q", kind)
	}
}

// nullSource mirrors the internal timing-only source through the public
// Source interface.
type nullSource struct{ d, n int }

func (s nullSource) Dim() int                                { return s.d }
func (s nullSource) Len() int                                { return s.n }
func (s nullSource) Chunk(start, n int, dst *phideep.Matrix) {}

// Label satisfies phideep.Labeled so timing-only convnet runs work; the
// trainer never reads labels on a timing-only device.
func (s nullSource) Label(idx int) int { return 0 }

// options bundles the model-variant, fault-tolerance and observability
// switches.
type options struct {
	momentum, corruption float64
	tied                 bool
	gaussian             bool
	shuffle              bool
	adaptive             bool

	// convnet geometry (-model convnet)
	filters1, kernel1 int
	filters2, kernel2 int
	pool, classes     int

	metricsPath string // -metrics: JSON run-report destination
	stats       bool   // -stats: print the registry table at exit

	checkpoint      string // -checkpoint: crash-consistent snapshot file (stack: base path)
	checkpointEvery int    // -checkpoint-every: cadence in chunks
	resume          string // -resume: checkpoint to restart from (lenient if missing)
	export          string // -export: final-model PHCK file, written after training succeeds

	faultRate      float64 // -fault-rate: per-attempt transfer fault probability
	faultSeed      uint64  // -fault-seed: fault-stream seed
	faultPermanent float64 // -fault-permanent: permanent fraction of faults
	faultRetries   int     // -fault-retries: retry budget (0 = default)
}

func run(modelKind, dataKind string, side, visible, hidden int, sizesFlag string,
	examples, batch, epochs, iters int, lr, lambda, beta, rho float64,
	levelName, archName string, cores int, numeric, prefetch bool, seed uint64, traceFile string, opts options) error {

	if visible == 0 {
		visible = side * side
	}
	if err := validateFaultOpts(opts); err != nil {
		return err
	}
	if opts.metricsPath != "" || opts.stats {
		metrics.SetEnabled(true)
	}
	archDesc, err := pickArch(archName)
	if err != nil {
		return err
	}
	lvl, err := pickLevel(levelName)
	if err != nil {
		return err
	}
	var machOpts []phideep.MachineOption
	if numeric {
		machOpts = append(machOpts, phideep.WithNumeric())
	}
	mach := phideep.NewMachine(archDesc, machOpts...)
	defer mach.Close()
	if traceFile != "" {
		mach.Dev.EnableTrace(1 << 20)
		defer func() {
			f, err := os.Create(traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "phitrain: trace:", err)
				return
			}
			defer f.Close()
			if err := mach.Dev.WriteChromeTrace(f); err != nil {
				fmt.Fprintln(os.Stderr, "phitrain: trace:", err)
			}
		}()
	}
	ctx := phideep.NewContext(mach.Dev, lvl, cores, seed)

	tc := phideep.TrainConfig{Epochs: epochs, Iterations: iters, LR: lr, Prefetch: prefetch}
	if iters > 0 {
		tc.Epochs = 0
	}
	tc.CheckpointPath = opts.checkpoint
	tc.CheckpointEvery = opts.checkpointEvery
	if opts.resume != "" {
		if _, err := os.Stat(opts.resume); err == nil {
			tc.ResumePath = opts.resume
		} else {
			// Lenient resume: a missing checkpoint means "first run" —
			// start fresh rather than failing, so the same command line
			// works before and after an interruption.
			fmt.Fprintf(os.Stderr, "phitrain: no checkpoint at %s, starting fresh\n", opts.resume)
		}
	}
	if opts.adaptive {
		startLR := lr
		if startLR <= 0 {
			startLR = 0.1
		}
		tc.Adaptive = phideep.NewBoldDriver(startLR)
	}

	src, err := pickData(dataKind, side, visible, examples, seed, numeric)
	if err != nil {
		return err
	}
	if opts.shuffle {
		src = phideep.NewShuffled(src, seed+100)
	}

	switch modelKind {
	case "ae", "rbm":
		var model phideep.Trainable
		if modelKind == "ae" {
			m, err := phideep.BuildAutoencoder(ctx, phideep.AutoencoderConfig{
				Visible: visible, Hidden: hidden, Lambda: lambda, Beta: beta, Rho: rho,
				Momentum: opts.momentum, Corruption: opts.corruption, Tied: opts.tied,
				Batch: batch, Seed: seed,
			})
			if err != nil {
				return err
			}
			model = m
		} else {
			m, err := phideep.BuildRBM(ctx, phideep.RBMConfig{
				Visible: visible, Hidden: hidden, SampleHidden: true,
				GaussianVisible: opts.gaussian, Momentum: opts.momentum,
				Batch: batch, Seed: seed,
			})
			if err != nil {
				return err
			}
			model = m
		}
		// Faults go live only after the initial parameter upload, so a
		// harsh -fault-rate exercises the training loop's retry and
		// degradation paths rather than aborting model construction.
		if err := enableFaults(mach.Dev, opts); err != nil {
			return err
		}
		trainer := &phideep.Trainer{Dev: mach.Dev, Cfg: tc}
		res, err := trainer.Run(model, src)
		if err != nil {
			return err
		}
		fmt.Printf("%s %dx%d on %s [%s]\n", modelKind, visible, hidden, archDesc.Name, lvl)
		printResult(res, numeric)
		if opts.export != "" {
			if err := exportModel(opts.export, model, res); err != nil {
				return err
			}
			fmt.Printf("  exported final model: %s\n", opts.export)
		}
		if opts.metricsPath != "" {
			rep := &runReport{Model: modelKind, Data: dataKind, Arch: archName, Level: levelName, Numeric: numeric}
			rep.fillResult(res)
			if err := writeReport(opts.metricsPath, rep); err != nil {
				return err
			}
		}
		if opts.stats {
			printSummary()
		}
		return nil

	case "convnet":
		if opts.shuffle {
			// Shuffled wraps only the unlabeled Source surface, so labels
			// would desynchronize from their images.
			return fmt.Errorf("-shuffle is not supported with -model convnet")
		}
		lsrc, ok := src.(phideep.Labeled)
		if !ok {
			return fmt.Errorf("convnet needs labeled data: -data digits (or null for timing-only), not %q", dataKind)
		}
		ccfg := phideep.ConvnetConfig{
			Side: side, Filters1: opts.filters1, Kernel1: opts.kernel1,
			Filters2: opts.filters2, Kernel2: opts.kernel2,
			Pool: opts.pool, Classes: opts.classes,
			Lambda: lambda, Momentum: opts.momentum, Batch: batch, Seed: seed,
		}
		model, err := phideep.BuildConvnet(ctx, ccfg)
		if err != nil {
			return err
		}
		if err := enableFaults(mach.Dev, opts); err != nil {
			return err
		}
		trainer := &phideep.Trainer{Dev: mach.Dev, Cfg: tc}
		res, err := trainer.RunLabeled(model, lsrc)
		if err != nil {
			return err
		}
		fmt.Printf("convnet %dx%d c%d/k%d c%d/k%d p%d -> %d classes on %s [%s]\n",
			side, side, opts.filters1, opts.kernel1, opts.filters2, opts.kernel2,
			opts.pool, opts.classes, archDesc.Name, lvl)
		printResult(res, numeric)
		if opts.export != "" {
			if err := exportModel(opts.export, model, res); err != nil {
				return err
			}
			fmt.Printf("  exported final model: %s\n", opts.export)
		}
		if opts.metricsPath != "" {
			rep := &runReport{Model: modelKind, Data: dataKind, Arch: archName, Level: levelName, Numeric: numeric}
			rep.fillResult(res)
			if err := writeReport(opts.metricsPath, rep); err != nil {
				return err
			}
		}
		if opts.stats {
			printSummary()
		}
		return nil

	case "stack", "dbn":
		if opts.export != "" {
			return fmt.Errorf("-export supports single-layer models (ae/rbm); use -checkpoint for per-layer %s snapshots", modelKind)
		}
		layerSizes, err := parseSizes(sizesFlag, visible, hidden)
		if err != nil {
			return err
		}
		scfg := phideep.StackConfig{
			Sizes: layerSizes, Lambda: lambda, Beta: beta, Rho: rho, Batch: batch, LR: lr,
			Momentum: opts.momentum, Corruption: opts.corruption, Tied: opts.tied,
		}
		if err := enableFaults(mach.Dev, opts); err != nil {
			return err
		}
		var res *phideep.StackResult
		if modelKind == "stack" {
			res, err = phideep.PretrainAutoencoders(ctx, tc, scfg, src, seed)
		} else {
			scfg.RBM.SampleHidden = true
			scfg.RBM.GaussianVisible = opts.gaussian
			res, err = phideep.PretrainDBN(ctx, tc, scfg, src, seed)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s %v on %s [%s]\n", modelKind, layerSizes, archDesc.Name, lvl)
		for i, l := range res.Layers {
			if l.Restored {
				fmt.Printf("  layer %d (%d -> %d): restored from checkpoint\n", i, l.Visible, l.Hidden)
				continue
			}
			fmt.Printf("  layer %d (%d -> %d): steps=%d firstLoss=%.5f finalLoss=%.5f wall=%.3fs\n",
				i, l.Visible, l.Hidden, l.Train.Steps, l.Train.FirstLoss, l.Train.FinalLoss, l.Train.WallSeconds)
		}
		fmt.Printf("  total simulated time: %.3f s\n", res.SimSeconds)
		if opts.metricsPath != "" {
			rep := &runReport{Model: modelKind, Data: dataKind, Arch: archName, Level: levelName, Numeric: numeric}
			rep.fillStack(res)
			if err := writeReport(opts.metricsPath, rep); err != nil {
				return err
			}
		}
		if opts.stats {
			printSummary()
		}
		return nil

	default:
		return fmt.Errorf("unknown model %q", modelKind)
	}
}

// exportModel writes the trained model as a final PHCK checkpoint — the
// same container the periodic -checkpoint snapshots use, so phiserve (and
// -resume) can load it — without requiring checkpointing during the run.
// It accepts any model family (Trainable or LabeledTrainable) that can
// serialize itself.
func exportModel(path string, model any, res *phideep.TrainResult) error {
	ck, ok := model.(phideep.Checkpointer)
	if !ok {
		return fmt.Errorf("-export: %T cannot serialize its state", model)
	}
	var blob bytes.Buffer
	if err := ck.SaveState(&blob); err != nil {
		return fmt.Errorf("-export: %w", err)
	}
	c := &phideep.Checkpoint{
		Step:      res.Steps,
		Chunk:     res.Chunks,
		Examples:  res.Examples,
		Skipped:   res.SkippedChunks,
		FirstLoss: res.FirstLoss,
		Model:     blob.Bytes(),
	}
	if err := phideep.WriteCheckpoint(path, c); err != nil {
		return fmt.Errorf("-export: %w", err)
	}
	return nil
}

// validateFaultOpts rejects malformed -fault-* flags at startup, before any
// machine is built or data generated, with the same range validator the
// device applies internally (and that phisim's -node-fault-* flags share) —
// a bad flag fails in milliseconds with a clear message instead of deep
// inside a long run.
func validateFaultOpts(opts options) error {
	cfg := phideep.FaultConfig{
		Rate:          opts.faultRate,
		PermanentFrac: opts.faultPermanent,
		MaxRetries:    opts.faultRetries,
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("bad -fault-* flags: %w", err)
	}
	return nil
}

// enableFaults arms the device's PCIe fault model when -fault-rate is
// positive; zero values fall through to the model's defaults.
func enableFaults(dev *phideep.Device, opts options) error {
	if opts.faultRate <= 0 {
		return nil
	}
	return dev.EnableFaults(phideep.FaultConfig{
		Rate:          opts.faultRate,
		PermanentFrac: opts.faultPermanent,
		Seed:          opts.faultSeed,
		MaxRetries:    opts.faultRetries,
	})
}

func parseSizes(s string, visible, hidden int) ([]int, error) {
	if s == "" {
		return []int{visible, hidden}, nil
	}
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -sizes entry %q", p)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

func printResult(res *phideep.TrainResult, numeric bool) {
	fmt.Printf("  steps=%d examples=%d chunks=%d\n", res.Steps, res.Examples, res.Chunks)
	if numeric {
		fmt.Printf("  loss: first=%.5f final=%.5f\n", res.FirstLoss, res.FinalLoss)
		for i, l := range res.EpochLoss {
			fmt.Printf("  epoch %d: %.5f\n", i+1, l)
		}
	}
	fmt.Printf("  wall time: %.3f s (%.0f examples/s)\n", res.WallSeconds, res.ExamplesPerSec)
	fmt.Printf("  simulated time: %.3f s (compute %.3f s, transfers %.3f s busy, %d kernel launches)\n",
		res.SimSeconds, res.Device.ComputeBusy, res.Device.TransferBusy, res.Device.Ops)
	fmt.Printf("  modeled flops: %.3g, PCIe bytes: %d, peak device memory: %d MB\n",
		res.Device.Flops, res.Device.BytesMoved, res.Device.PeakAllocated>>20)
	if res.Resumed {
		fmt.Println("  resumed from checkpoint")
	}
	if res.Checkpoints > 0 {
		fmt.Printf("  checkpoints written: %d\n", res.Checkpoints)
	}
	if d := res.Device; d.FaultsTransient+d.FaultsPermanent > 0 {
		fmt.Printf("  transfer faults: %d transient, %d permanent; %d retries, %.3f s backoff; %d transfers failed, %d chunks skipped\n",
			d.FaultsTransient, d.FaultsPermanent, d.Retries, d.BackoffSeconds, d.FailedTransfers, res.SkippedChunks)
	}
}
