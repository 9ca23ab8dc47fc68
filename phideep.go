// Package phideep is a Go reproduction of "Training Large Scale Deep Neural
// Networks on the Intel Xeon Phi Many-core Coprocessor" (Jin, Wang, Gu,
// Yuan, Huang — IPDPSW 2014): parallel unsupervised pre-training of Sparse
// Autoencoders and Restricted Boltzmann Machines on a simulated Intel Xeon
// Phi 5110P, with the paper's full optimization ladder (sequential baseline
// → OpenMP-style loop parallelism → MKL-grade blocked/vectorized kernels →
// fused regions with dependency-graph scheduling), its chunked PCIe
// streaming pipeline with a prefetching loading thread, and its complete
// evaluation harness (Figs. 7–10, Table I).
//
// The package is a facade over the implementation packages in internal/;
// it exposes everything a downstream user needs:
//
//   - Platforms: XeonPhi5110P, XeonE5620Core/Full/Dual, MatlabR2012a — cost
//     models with simulated clocks. NewMachine binds one to a Device that
//     either really computes ("numeric") or only accounts time.
//   - Models: BuildAutoencoder (Eqs. 1–6), BuildRBM (Eqs. 7–13), BuildMLP
//     and BuildConvnet (im2col-lowered conv/pool layers, DESIGN.md §12),
//     resident on a device, trainable at any OptLevel.
//   - Training: Trainer runs Algorithm 1 (chunk streaming + minibatch SGD);
//     PretrainAutoencoders / PretrainDBN run the greedy layer-wise stacking
//     of Fig. 1.
//   - Data: synthetic handwritten-digit images and natural-image patches,
//     streamed by index (Digits, NaturalPatches), plus InMemory and Null
//     sources.
//   - Batch optimizers: CG and LBFGS over host-side reference models.
//
// A minimal numeric session:
//
//	m := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
//	defer m.Close()
//	ctx := phideep.NewContext(m.Dev, phideep.Improved, 0, 42)
//	ae, err := phideep.BuildAutoencoder(ctx, phideep.AutoencoderConfig{
//		Visible: 64, Hidden: 25, Lambda: 1e-4, Beta: 3, Rho: 0.05,
//		Batch: 100, Seed: 1,
//	})
//	...
//	trainer := &phideep.Trainer{Dev: m.Dev, Cfg: phideep.TrainConfig{
//		Epochs: 10, LR: 0.5, Prefetch: true,
//	}}
//	res, err := trainer.Run(ae, phideep.NewDigits(8, 10000, 7, 0.05))
//	fmt.Println(res.SimSeconds, res.FinalLoss)
//
// Trained models answer online traffic through the serving layer: wrap the
// parameters with ServeAutoencoder / ServeRBM / ServeMLP / ServeConvnet
// (or load a PHCK checkpoint), then NewServer coalesces concurrent
// requests into micro-batches on a pool of host replicas. See
// internal/serve and cmd/phiserve.
package phideep

import (
	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/cluster"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/device"
	"phideep/internal/feed"
	"phideep/internal/hybrid"
	"phideep/internal/kernels"
	"phideep/internal/mlp"
	"phideep/internal/opt"
	"phideep/internal/parallel"
	"phideep/internal/rbm"
	"phideep/internal/rng"
	"phideep/internal/serve"
	"phideep/internal/sim"
	"phideep/internal/stack"
	"phideep/internal/tensor"
	"phideep/internal/tune"
)

// Re-exported core types. These are aliases, so values flow freely between
// the facade and the internal packages.
type (
	// Arch is a simulated platform description (cores, vector width,
	// bandwidths, synchronization and transfer costs).
	Arch = sim.Arch
	// Device is a simulated execution platform with device memory, a
	// compute engine and a PCIe transfer engine.
	Device = device.Device
	// Buffer is a matrix resident in device global memory.
	Buffer = device.Buffer
	// Context is an execution configuration (optimization level, core
	// count, vectorization, fusion) bound to a device.
	Context = blas.Context
	// OptLevel is a step of the paper's Table I optimization ladder.
	OptLevel = core.OptLevel
	// Trainer runs the paper's Algorithm 1 on a device.
	Trainer = core.Trainer
	// TrainConfig parameterizes a Trainer run.
	TrainConfig = core.TrainConfig
	// TrainResult summarizes a training run (simulated seconds, losses,
	// device stats).
	TrainResult = core.Result
	// Trainable is any model the Trainer can drive.
	Trainable = core.Trainable
	// LabeledTrainable is a model the Trainer can drive supervised
	// (Trainer.RunLabeled): one StepLabeled per minibatch with one-hot
	// targets staged alongside the examples.
	LabeledTrainable = core.LabeledTrainable
	// DeviceStats is a snapshot of device activity counters.
	DeviceStats = device.Stats
	// FaultConfig parameterizes the device's injectable PCIe fault model
	// (failure rate, transient/permanent split, retry budget, backoff).
	FaultConfig = device.FaultConfig
	// TransferError reports a transfer abandoned by the fault model.
	TransferError = device.TransferError
	// Checkpointer is implemented by models that can serialize their
	// resumable training state (the Autoencoder and RBM both do).
	Checkpointer = core.Checkpointer
	// Checkpoint is the decoded form of a PHCK checkpoint file: training
	// cursor plus the model state blob.
	Checkpoint = core.Checkpoint

	// Autoencoder is the paper's Sparse Autoencoder resident on a device.
	Autoencoder = autoencoder.Model
	// AutoencoderConfig holds its geometry and Eq. 4–5 hyperparameters.
	AutoencoderConfig = autoencoder.Config
	// AutoencoderParams is the host-side parameter set.
	AutoencoderParams = autoencoder.Params

	// RBM is the paper's Restricted Boltzmann Machine resident on a device.
	RBM = rbm.Model
	// RBMConfig holds its geometry and CD options.
	RBMConfig = rbm.Config
	// RBMParams is the host-side parameter set.
	RBMParams = rbm.Params

	// Source streams training examples by index.
	Source = data.Source
	// Labeled is a Source whose examples carry integer class labels
	// (Digits implements it).
	Labeled = data.Labeled
	// ChunkPlan is the validated chunk geometry shared by the trainer, the
	// cluster, and the feed: batch size, chunk size, source length.
	ChunkPlan = data.ChunkPlan
	// PlanRequest parameterizes PlanChunks, including the auto-sizing
	// inputs (buffer depth, per-example width, free device bytes).
	PlanRequest = data.PlanRequest
	// InMemory serves examples from a matrix.
	InMemory = data.InMemory
	// Digits generates handwritten-digit-like images.
	Digits = data.Digits
	// NaturalPatches generates patches from synthetic natural images.
	NaturalPatches = data.NaturalPatches
	// Shuffled re-permutes any Source per epoch (deterministic per seed).
	Shuffled = data.Shuffled

	// Feed is the streaming data plane: a dataset server handing sharded
	// chunk leases to training, cluster, and serving consumers (DESIGN.md
	// §15).
	Feed = feed.Feed
	// FeedConfig parameterizes a Feed (chunk plan, horizon, window,
	// backpressure bound, ledger).
	FeedConfig = feed.Config
	// FeedConsumer is one subscribed consumer's lease cursor.
	FeedConsumer = feed.Consumer
	// FeedLease names one leased chunk (global sequence, shard, rows).
	FeedLease = feed.Lease
	// FeedStats is a Feed's protocol counter snapshot.
	FeedStats = feed.Stats
	// FeedEvent is one ledger entry of a Feed run with FeedConfig.Ledger.
	FeedEvent = feed.Event

	// Matrix is a dense row-major float64 matrix.
	Matrix = tensor.Matrix
	// Vector is a dense float64 vector.
	Vector = tensor.Vector
	// RNG is the deterministic generator used across the library.
	RNG = rng.RNG

	// MLP is a deep sigmoid classifier with a softmax head — the network
	// that supervised fine-tuning trains after pre-training.
	MLP = mlp.Model
	// MLPConfig holds its geometry and hyperparameters.
	MLPConfig = mlp.Config
	// MLPParams is the host-side parameter set.
	MLPParams = mlp.Params

	// Convnet is the LeNet-style convolutional classifier resident on a
	// device: conv → pool → conv → pool → softmax, lowered via im2col onto
	// the packed GEMM (DESIGN.md §12).
	Convnet = convnet.Model
	// ConvnetConfig holds its geometry and hyperparameters.
	ConvnetConfig = convnet.Config
	// ConvnetParams is the host-side parameter set.
	ConvnetParams = convnet.Params

	// StackConfig describes a deep stack for greedy layer-wise
	// pre-training (Fig. 1).
	StackConfig = stack.Config
	// StackResult records a pre-training run.
	StackResult = stack.Result

	// HybridAE trains one Sparse Autoencoder data-parallel across a host
	// and a coprocessor (the §VI future-work experiment).
	HybridAE = hybrid.AE
	// HybridAEConfig parameterizes the hybrid pair.
	HybridAEConfig = hybrid.AEConfig

	// Cluster simulates data-parallel training with parameter averaging
	// across N nodes over a modeled interconnect (the distributed
	// alternative of the paper's §I/§III framing).
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes it; Interconnect models the network.
	ClusterConfig = cluster.Config
	Interconnect  = cluster.Interconnect
	// ClusterFaultPlan injects deterministic per-node crashes, straggler
	// stalls and rejoin events into a cluster run; ClusterNodeFault
	// scripts one such event exactly.
	ClusterFaultPlan = cluster.FaultPlan
	ClusterNodeFault = cluster.NodeFault
	// ClusterPolicy selects the straggler mitigation at sync barriers;
	// ClusterReport is the degradation ledger of a finished run.
	ClusterPolicy = cluster.Policy
	ClusterReport = cluster.Report

	// TuneCandidate is one execution configuration for the auto-tuner;
	// TuneResult its ranked outcome; TuneWorkload anything the tuner can
	// evaluate — TuneAEWorkload, TuneMLPWorkload and TuneConvWorkload are
	// the stock implementations for the three model families.
	TuneCandidate    = tune.Candidate
	TuneResult       = tune.Result
	TuneWorkload     = tune.Workload
	TuneAEWorkload   = tune.AEWorkload
	TuneMLPWorkload  = tune.MLPWorkload
	TuneConvWorkload = tune.ConvWorkload
	// TunePredictor is the calibrated performance model built by
	// TuneCalibrate: an analytical cost model fit from short probe runs
	// that predicts full-run epoch time for any candidate without
	// simulating it.
	TunePredictor = tune.Predictor

	// Server coalesces concurrent single-example inference requests into
	// micro-batches executed on a pool of replica workers — the online
	// serving layer over a trained model. Create with NewServer.
	Server = serve.Server
	// ServeConfig parameterizes a Server: OptLevel, worker count,
	// precision, micro-batch limit (MaxBatch), admission
	// control (QueueDepth/Policy) and robustness (Faults, MaxRestarts,
	// RequestTimeout).
	ServeConfig = serve.Config
	// ServeModel is an immutable (copy-on-load) snapshot of trained
	// parameters ready to serve; build one with ServeAutoencoder,
	// ServeRBM, ServeMLP or the *FromCheckpoint loaders.
	ServeModel = serve.Model
	// ServePolicy selects the full-queue behavior (ServeBlock, ServeShed,
	// ServeDegrade).
	ServePolicy = serve.Policy
	// ServeOp identifies a serving operation (encode, reconstruct,
	// predict).
	ServeOp = serve.Op
	// Precision selects the numeric width of the serving forward path
	// (PrecisionF64, PrecisionF32).
	Precision = serve.Precision
	// BatcherStats is a point-in-time snapshot of the micro-batcher,
	// returned by (*Server).Stats.
	BatcherStats = serve.BatcherStats
	// ServeHealth is the server's availability state machine (healthy →
	// degraded → draining → down), returned by (*Server).Health and
	// surfaced in BatcherStats and phiserve's /healthz.
	ServeHealth = serve.Health
	// WorkerFaultError is the typed completion a request receives when
	// its worker hit a worker-fatal fault (permanent device transfer
	// fault, retry exhaustion, or a recovered panic) and no healthy
	// replica could salvage the batch.
	WorkerFaultError = serve.WorkerFaultError

	// AdaptiveLR is a loss-driven learning-rate controller for
	// TrainConfig.Adaptive; BoldDriver is the classic implementation.
	AdaptiveLR = opt.AdaptiveLR
	BoldDriver = opt.BoldDriver

	// Objective is a cost/gradient callback for the batch optimizers.
	Objective = opt.Objective
	// CGConfig parameterizes Conjugate Gradient; LBFGSConfig parameterizes
	// limited-memory BFGS; OptResult summarizes either.
	CGConfig    = opt.CGConfig
	LBFGSConfig = opt.LBFGSConfig
	OptResult   = opt.Result
)

// The optimization ladder of Table I.
const (
	// Baseline is the un-optimized sequential algorithm.
	Baseline = core.Baseline
	// OpenMP parallelizes all loops across the cores.
	OpenMP = core.OpenMP
	// OpenMPMKL adds MKL-grade blocked, vectorized matrix kernels.
	OpenMPMKL = core.OpenMPMKL
	// Improved adds loop fusion and Fig. 6 dependency-graph scheduling.
	Improved = core.Improved
)

// Admission-control policies for a full serving queue
// (ServeConfig.Policy).
const (
	// ServeBlock parks callers until queue space frees (backpressure).
	ServeBlock = serve.Block
	// ServeShed rejects new requests with ErrOverloaded, never dropping
	// admitted work.
	ServeShed = serve.Shed
	// ServeDegrade answers inline from the scalar host reference path.
	ServeDegrade = serve.Degrade
)

// Serving numeric widths (ServeConfig.Precision).
const (
	// PrecisionF64 serves at float64 with the bits of the model's device
	// forward, the path training runs.
	PrecisionF64 = serve.F64
	// PrecisionF32 serves from float32 weight snapshots on the packed f32
	// kernels — double the SIMD lanes, half the memory traffic, with
	// answers within float32 rounding of the f64 path. Training is always
	// float64; only the forward serving pass narrows.
	PrecisionF32 = serve.F32
)

// Serving availability states (ServeHealth).
const (
	// ServeHealthy: every configured worker slot is live.
	ServeHealthy = serve.Healthy
	// ServeDegraded: at least one worker slot retired after exhausting
	// its restart budget; survivors keep serving.
	ServeDegraded = serve.Degraded
	// ServeDraining: admission is closed while in-flight work completes.
	ServeDraining = serve.Draining
	// ServeDown: no live worker replica remains; requests fail fast.
	ServeDown = serve.Down
)

// ErrOverloaded is returned by serving calls under ServeShed when the
// admission queue is full.
var ErrOverloaded = serve.ErrOverloaded

// ErrServerClosed is returned by serving calls made after (*Server).Close.
var ErrServerClosed = serve.ErrClosed

// ErrDeadline is returned by serving calls whose per-request deadline
// (ServeConfig.RequestTimeout or a ctx deadline) expired before a worker
// answered; the late batch result is discarded safely.
var ErrDeadline = serve.ErrDeadline

// ErrServerDown is returned by serving calls once every worker slot has
// retired under injected faults; the server fails fast rather than
// queueing forever.
var ErrServerDown = serve.ErrDown

// Cluster straggler policies (ClusterConfig.Policy).
const (
	// WaitAll waits for every participant each round (the synchronous
	// baseline; numerics never change).
	WaitAll = cluster.WaitAll
	// TimeoutDrop drops laggards that miss the round deadline.
	TimeoutDrop = cluster.TimeoutDrop
	// BackupNode races a hot spare against each laggard.
	BackupNode = cluster.BackupNode
)

// Platform constructors.
var (
	// XeonPhi5110P is the paper's coprocessor (60 cores, 512-bit VPU).
	XeonPhi5110P = sim.XeonPhi5110P
	// XeonE5620Core is one host CPU core — the Figs. 7–9 comparator.
	XeonE5620Core = sim.XeonE5620Core
	// XeonE5620Full is the whole 4-core host chip.
	XeonE5620Full = sim.XeonE5620Full
	// XeonE5620Dual is a dual-socket host — the abstract's "Intel Xeon
	// CPU" comparator (7–10×).
	XeonE5620Dual = sim.XeonE5620Dual
	// MatlabR2012a is the Fig. 10 baseline.
	MatlabR2012a = sim.MatlabR2012a
	// TeslaK20X is a 2013-era GPU comparator (the §III positioning).
	TeslaK20X = sim.TeslaK20X
)

// Machine bundles a device with the worker pool that executes its numeric
// kernels. Close releases the pool.
type Machine struct {
	Dev  *Device
	pool *parallel.Pool
}

// MachineOption configures NewMachine. Options compose left to right:
//
//	phideep.NewMachine(arch)                                         // timing-only
//	phideep.NewMachine(arch, phideep.WithNumeric())                  // numeric
//	phideep.NewMachine(arch, phideep.WithNumeric(), phideep.WithWorkers(8))
type MachineOption func(*machineOptions)

type machineOptions struct {
	numeric bool
	workers int
}

// WithNumeric makes the machine really execute kernels (alongside the
// simulated timing) instead of only accounting time.
func WithNumeric() MachineOption {
	return func(o *machineOptions) { o.numeric = true }
}

// WithTimingOnly makes the machine only account simulated time — the
// default; the option exists to state it explicitly.
func WithTimingOnly() MachineOption {
	return func(o *machineOptions) { o.numeric = false }
}

// WithWorkers sets the host worker pool size for numeric parallel kernels
// (0 = GOMAXPROCS). It has no effect on a timing-only machine.
func WithWorkers(n int) MachineOption {
	return func(o *machineOptions) { o.workers = n }
}

// NewMachine creates a device for the given platform. By default the
// machine is timing-only (it accounts simulated seconds without computing);
// pass WithNumeric to execute kernels for real, and WithWorkers to size the
// kernel pool.
func NewMachine(arch *Arch, opts ...MachineOption) *Machine {
	var o machineOptions
	for _, opt := range opts {
		opt(&o)
	}
	var pool *parallel.Pool
	if o.numeric {
		pool = parallel.NewPool(o.workers)
	}
	return &Machine{Dev: device.New(arch, o.numeric, pool), pool: pool}
}

// Close stops the machine's worker pool. The device must not execute
// numeric kernels afterwards.
func (m *Machine) Close() {
	if m.pool != nil {
		m.pool.Close()
	}
}

// NewContext builds an execution context for the given ladder level on the
// device. cores limits the physical cores (0 = all). The context seeds the
// sampling RNG with seed, so runs are reproducible.
func NewContext(dev *Device, lvl OptLevel, cores int, seed uint64) *Context {
	return core.NewContext(dev, lvl, cores, seed)
}

// BuildAutoencoder allocates a Sparse Autoencoder on the context's device
// for cfg.Batch examples, initialized from cfg.Seed.
func BuildAutoencoder(ctx *Context, cfg AutoencoderConfig) (*Autoencoder, error) {
	return autoencoder.Build(ctx, cfg)
}

// BuildRBM allocates a Restricted Boltzmann Machine on the context's
// device for cfg.Batch examples, initialized from cfg.Seed.
func BuildRBM(ctx *Context, cfg RBMConfig) (*RBM, error) {
	return rbm.Build(ctx, cfg)
}

// BuildMLP allocates a deep softmax classifier on the context's device for
// cfg.Batch examples, initialized from cfg.Seed. Use (*MLP).InitFromStack
// to warm-start its hidden layers from a pre-trained stack.
func BuildMLP(ctx *Context, cfg MLPConfig) (*MLP, error) {
	return mlp.Build(ctx, cfg)
}

// NewAutoencoderInference allocates a forward-only Sparse Autoencoder for
// up to batch examples: Encode/Reconstruct work (and allocate no gradient
// buffers), the training entry points panic. p supplies the weights (nil
// initializes from cfg.Seed).
func NewAutoencoderInference(ctx *Context, cfg AutoencoderConfig, batch int, p *AutoencoderParams) (*Autoencoder, error) {
	return autoencoder.NewInference(ctx, cfg, batch, p)
}

// NewRBMInference allocates a forward-only RBM (deterministic mean-field
// Encode/Reconstruct, no gradient or chain workspace).
func NewRBMInference(ctx *Context, cfg RBMConfig, batch int, p *RBMParams) (*RBM, error) {
	return rbm.NewInference(ctx, cfg, batch, p)
}

// NewMLPInference allocates a forward-only classifier (batched Infer, no
// gradient workspace).
func NewMLPInference(ctx *Context, cfg MLPConfig, batch int, p *MLPParams) (*MLP, error) {
	return mlp.NewInference(ctx, cfg, batch, p)
}

// BuildConvnet allocates a convolutional classifier on the context's
// device for cfg.Batch examples, initialized from cfg.Seed. Train it
// supervised with (*Trainer).RunLabeled on a Labeled source such as Digits.
func BuildConvnet(ctx *Context, cfg ConvnetConfig) (*Convnet, error) {
	return convnet.Build(ctx, cfg)
}

// NewConvnetInference allocates a forward-only convnet (batched Infer, no
// gradient workspace). p supplies the weights (nil initializes from
// cfg.Seed).
func NewConvnetInference(ctx *Context, cfg ConvnetConfig, batch int, p *ConvnetParams) (*Convnet, error) {
	return convnet.NewInference(ctx, cfg, batch, p)
}

// OneHot fills dst (len(labels)×classes) with one-hot target rows.
func OneHot(labels []int, dst *Matrix) { kernels.OneHot(labels, dst) }

// BuildHybridAE builds a host+coprocessor data-parallel Sparse Autoencoder
// pair (§VI future work), both replicas initialized from cfg.Seed. phiCtx
// must be bound to a device with a PCIe link.
func BuildHybridAE(phiCtx, hostCtx *Context, cfg HybridAEConfig) (*HybridAE, error) {
	return hybrid.BuildAE(phiCtx, hostCtx, cfg)
}

// TuneDefaultCandidates enumerates the standard tuning grid for a
// platform: optimization level × cores × threads/core × fusion.
func TuneDefaultCandidates(arch *Arch) []TuneCandidate { return tune.DefaultCandidates(arch) }

// TuneCalibrate fits the calibrated performance predictor for a workload
// from short probe runs against the simulator; the result predicts any
// grid candidate's full-run epoch time without simulating it.
func TuneCalibrate(w TuneWorkload, cands []TuneCandidate) (*TunePredictor, error) {
	return tune.Calibrate(w, cands)
}

// TunePrunedSearch is the predictor-guided search: calibrate on short
// probes, rank the grid by predicted epoch time, then spend full simulated
// evaluations only on the predicted top k. See `phibench -tune` for the
// CLI demonstration.
func TunePrunedSearch(w TuneWorkload, cands []TuneCandidate, topK int) (*TuneResult, *TunePredictor, error) {
	return tune.PrunedSearch(w, cands, topK)
}

// NewServer builds an online inference server over a ServeModel: Workers
// host replicas behind a dynamic micro-batcher with admission control. See
// ServeConfig for the knobs (Precision, Faults, RequestTimeout, …) and
// cmd/phiserve for the HTTP front-end.
func NewServer(m *ServeModel, cfg ServeConfig) (*Server, error) {
	return serve.New(m, cfg)
}

// ServeAutoencoder snapshots autoencoder parameters for serving (Encode
// and Reconstruct). p is deep-copied at load (copy-on-load), so the source
// may keep training; nil initializes fresh parameters from cfg.Seed.
func ServeAutoencoder(cfg AutoencoderConfig, p *AutoencoderParams) *ServeModel {
	return serve.Autoencoder(cfg, p)
}

// ServeRBM snapshots RBM parameters for serving (Encode and mean-field
// Reconstruct). p is deep-copied; nil initializes from cfg.Seed.
func ServeRBM(cfg RBMConfig, p *RBMParams) *ServeModel {
	return serve.RBM(cfg, p)
}

// ServeMLP snapshots classifier parameters for serving (Predict). p is
// deep-copied; nil initializes from cfg.Seed.
func ServeMLP(cfg MLPConfig, p *MLPParams) *ServeModel {
	return serve.MLP(cfg, p)
}

// ServeConvnet snapshots convnet parameters for serving (Predict). p is
// deep-copied; nil initializes from cfg.Seed.
func ServeConvnet(cfg ConvnetConfig, p *ConvnetParams) *ServeModel {
	return serve.Convnet(cfg, p)
}

// ServeAutoencoderCheckpoint loads autoencoder parameters from a PHCK
// checkpoint (written by Trainer or phitrain -export) for serving. cfg
// must describe the geometry the checkpoint was trained with.
func ServeAutoencoderCheckpoint(cfg AutoencoderConfig, path string) (*ServeModel, error) {
	return serve.AutoencoderFromCheckpoint(cfg, path)
}

// ServeRBMCheckpoint loads RBM parameters from a PHCK checkpoint for
// serving.
func ServeRBMCheckpoint(cfg RBMConfig, path string) (*ServeModel, error) {
	return serve.RBMFromCheckpoint(cfg, path)
}

// ServeMLPCheckpoint loads classifier parameters from a PHCK checkpoint
// for serving.
func ServeMLPCheckpoint(cfg MLPConfig, path string) (*ServeModel, error) {
	return serve.MLPFromCheckpoint(cfg, path)
}

// ServeConvnetCheckpoint loads convnet parameters from a PHCK checkpoint
// (written by phitrain -model convnet -export) for serving.
func ServeConvnetCheckpoint(cfg ConvnetConfig, path string) (*ServeModel, error) {
	return serve.ConvnetFromCheckpoint(cfg, path)
}

// NewCluster builds an N-node parameter-averaging cluster of the given
// platform at the given optimization level.
func NewCluster(arch *Arch, lvl OptLevel, cfg ClusterConfig, numeric bool, seed uint64) (*Cluster, error) {
	return cluster.New(arch, lvl, cfg, numeric, seed)
}

// GigabitEthernet and TenGigabitEthernet are stock interconnect models for
// ClusterConfig.Net.
func GigabitEthernet() Interconnect    { return cluster.GigabitEthernet() }
func TenGigabitEthernet() Interconnect { return cluster.TenGigabitEthernet() }

// MinDigitsSide and MinPatchSide are the smallest sides NewDigits and
// NewNaturalPatches accept; both panic below them.
const (
	MinDigitsSide = data.MinDigitsSide
	MinPatchSide  = data.MinPatchSide
)

// NewDigits returns a deterministic stream of n stroke-rendered digit
// images of side×side pixels with the given additive noise.
func NewDigits(side, n int, seed uint64, noise float64) *Digits {
	return data.NewDigits(side, n, seed, noise)
}

// NewNaturalPatches returns a deterministic stream of n patchSide×patchSide
// patches from synthetic natural images, rescaled to [0.1, 0.9].
func NewNaturalPatches(patchSide, n int, seed uint64) *NaturalPatches {
	return data.NewNaturalPatches(patchSide, n, seed)
}

// NewShuffled wraps any Source with a deterministic per-epoch permutation.
func NewShuffled(base Source, seed uint64) *Shuffled {
	return data.NewShuffled(base, seed)
}

// PlanNoMemLimit marks a PlanRequest whose auto-sizing is not constrained
// by device staging memory.
const PlanNoMemLimit = data.NoMemLimit

// PlanChunks validates and auto-sizes a chunk geometry — the same
// computation the Trainer historically ran inline, now shared with the
// cluster and the feed.
func PlanChunks(req PlanRequest) (ChunkPlan, error) {
	return data.PlanChunks(req)
}

// NewFeed builds a dataset server over src with the given protocol
// configuration; consumers subscribe before the first lease seals the
// shard count.
func NewFeed(src Source, cfg FeedConfig) (*Feed, error) {
	return feed.New(src, cfg)
}

// NewLabeledFeed is NewFeed for a labeled source: label chunks (one-hot or
// class indices) ride the same lease protocol.
func NewLabeledFeed(src Labeled, cfg FeedConfig) (*Feed, error) {
	return feed.NewLabeled(src, cfg)
}

// ErrFeedExhausted and ErrFeedWindowFull are the feed protocol's sentinel
// errors: the horizon is spent; the consumer holds its full lease window.
var (
	ErrFeedExhausted  = feed.ErrExhausted
	ErrFeedWindowFull = feed.ErrWindowFull
)

// PretrainAutoencoders greedily pre-trains one Sparse Autoencoder per
// adjacent layer pair of cfg.Sizes (the Fig. 1 stacking), streaming src.
func PretrainAutoencoders(ctx *Context, trainCfg TrainConfig, cfg StackConfig, src Source, seed uint64) (*StackResult, error) {
	return stack.PretrainAutoencoders(ctx, trainCfg, cfg, src, seed)
}

// PretrainDBN greedily pre-trains one RBM per adjacent layer pair of
// cfg.Sizes, yielding a Deep Belief Network.
func PretrainDBN(ctx *Context, trainCfg TrainConfig, cfg StackConfig, src Source, seed uint64) (*StackResult, error) {
	return stack.PretrainDBN(ctx, trainCfg, cfg, src, seed)
}

// CG minimizes obj from theta (updated in place) with nonlinear Conjugate
// Gradient — one of the batch methods the paper discusses as the
// parallelism-friendly alternative to online SGD.
func CG(obj Objective, theta Vector, cfg CGConfig) OptResult {
	return opt.CG(obj, theta, cfg)
}

// LBFGS minimizes obj from theta (updated in place) with limited-memory
// BFGS.
func LBFGS(obj Objective, theta Vector, cfg LBFGSConfig) OptResult {
	return opt.LBFGS(obj, theta, cfg)
}

// WriteCheckpoint atomically writes a PHCK checkpoint file (temp file,
// fsync, rename), as the Trainer does for its periodic checkpoints.
func WriteCheckpoint(path string, c *Checkpoint) error { return core.WriteCheckpoint(path, c) }

// ReadCheckpoint reads and validates a PHCK checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) { return core.ReadCheckpoint(path) }

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.NewMatrix(rows, cols) }

// NewVector allocates a zeroed length-n vector.
func NewVector(n int) Vector { return tensor.NewVector(n) }

// NewRNG returns a deterministic random generator seeded with seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewBoldDriver returns the classic adaptive learning-rate controller
// (grow 5% on improvement, halve on worsening) starting at lr; assign it to
// TrainConfig.Adaptive. All parameter types (AutoencoderParams, RBMParams,
// MLPParams) also expose Save/Load for checkpointing trained models.
func NewBoldDriver(lr float64) *BoldDriver { return opt.NewBoldDriver(lr) }

// NewAutoencoderParams returns host-side Sparse Autoencoder parameters with
// the conventional initialization — the starting point for the batch
// optimizers and for Upload onto a device model.
func NewAutoencoderParams(cfg AutoencoderConfig, seed uint64) *AutoencoderParams {
	return autoencoder.NewParams(cfg, seed)
}

// NewRBMParams returns host-side RBM parameters with the conventional
// initialization.
func NewRBMParams(cfg RBMConfig, seed uint64) *RBMParams {
	return rbm.NewParams(cfg, seed)
}

// NewConvnetParams returns host-side convnet parameters with the
// conventional initialization.
func NewConvnetParams(cfg ConvnetConfig, seed uint64) *ConvnetParams {
	return convnet.NewParams(cfg, seed)
}

// AutoencoderObjective adapts the host reference Sparse Autoencoder on the
// fixed dataset x (one example per row) to the flat-vector Objective form
// that CG and LBFGS consume. Evaluating the objective writes theta back
// into p, so p holds the optimized parameters afterwards.
func AutoencoderObjective(cfg AutoencoderConfig, p *AutoencoderParams, x *Matrix) (Objective, Vector) {
	obj, theta := autoencoder.Objective(cfg, p, x)
	return Objective(obj), theta
}

// AutoencoderCost evaluates the Eq. 5 objective of the host reference model
// on x, without computing a gradient.
func AutoencoderCost(cfg AutoencoderConfig, p *AutoencoderParams, x *Matrix) float64 {
	return autoencoder.CostGrad(cfg, p, x, nil)
}
