// Package stack implements the greedy layer-wise unsupervised pre-training
// of deep networks shown in the paper's Fig. 1: a four-layer network
// decomposes into a sequence of Sparse Autoencoders (or RBMs, yielding a
// Deep Belief Network), each trained on the hidden-layer outputs of the
// previous one.
//
// Layer outputs for the next stage are produced by the streaming loading
// pipeline on the host (an EncodedSource wrapping the previous source), so
// the device only ever sees ready-made training chunks — matching the
// paper's protocol where "the training examples of higher layer come from
// the output of the previous layer".
package stack

import (
	"fmt"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/core"
	"phideep/internal/data"
	"phideep/internal/rbm"
	"phideep/internal/tensor"
)

// Config describes a deep stack to pre-train.
type Config struct {
	// Sizes lists the layer widths, input first — Table I uses
	// {1024, 512, 256, 128}, i.e. three unsupervised trainings.
	Sizes []int
	// Autoencoder hyperparameters applied at every layer (ignored for
	// DBNs).
	Lambda, Beta, Rho float64
	// Momentum, Corruption and Tied pass through to every autoencoder
	// layer (classical momentum, denoising corruption, tied decoder
	// weights). Momentum also applies to DBN layers.
	Momentum, Corruption float64
	Tied                 bool
	// RBM options applied at every layer (ignored for autoencoder stacks).
	RBM rbm.Config
	// Batch is the minibatch size; LR the learning rate.
	Batch int
	LR    float64
}

// Validate checks the stack configuration.
func (c *Config) Validate() error {
	if len(c.Sizes) < 2 {
		return fmt.Errorf("stack: need at least two layer sizes, got %d", len(c.Sizes))
	}
	for i, s := range c.Sizes {
		if s <= 0 {
			return fmt.Errorf("stack: layer %d has non-positive size %d", i, s)
		}
	}
	if c.Batch <= 0 {
		return fmt.Errorf("stack: non-positive batch %d", c.Batch)
	}
	return nil
}

// LayerResult records one trained layer.
type LayerResult struct {
	Visible, Hidden int
	Train           *core.Result
	// AE holds the trained autoencoder parameters (nil for DBN layers);
	// RBM the trained RBM parameters (nil for autoencoder layers). On
	// model-only devices these are the initializations.
	AE  *autoencoder.Params
	RBM *rbm.Params
	// Restored marks a layer that was not trained in this run: its
	// parameters were loaded from a previous run's <base>.layerN.done
	// file (see the layer-wise checkpoint hand-off in checkpoint.go).
	// Train is then an empty Result with Resumed set.
	Restored bool
}

// Result records a full pre-training run.
type Result struct {
	Layers []LayerResult
	// SimSeconds is the simulated time of the whole pre-training (the sum
	// over layers, as the device accumulates).
	SimSeconds float64
}

// PretrainAutoencoders greedily trains one Sparse Autoencoder per adjacent
// size pair on ctx's device and returns the per-layer parameters and the
// accumulated simulated time. trainCfg applies to every layer; when its
// CheckpointPath is set it is treated as the base of per-layer checkpoint
// files (see checkpoint.go) and completed layers of a previous run with
// the same base are restored instead of retrained.
func PretrainAutoencoders(ctx *blas.Context, trainCfg core.TrainConfig, cfg Config, src data.Source, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src.Dim() != cfg.Sizes[0] {
		return nil, fmt.Errorf("stack: source dim %d, first layer wants %d", src.Dim(), cfg.Sizes[0])
	}
	res := &Result{}
	cur := src
	for i := 0; i+1 < len(cfg.Sizes); i++ {
		aeCfg := autoencoder.Config{
			Visible: cfg.Sizes[i], Hidden: cfg.Sizes[i+1],
			Lambda: cfg.Lambda, Beta: cfg.Beta, Rho: cfg.Rho,
			Momentum: cfg.Momentum, Corruption: cfg.Corruption, Tied: cfg.Tied,
			Batch: cfg.Batch, Seed: seed + uint64(i),
		}
		ckptPath, donePath := layerPaths(trainCfg.CheckpointPath, i)
		if fileExists(donePath) {
			params := autoencoder.NewParams(aeCfg, 0)
			if err := loadParams(donePath, params.Load); err != nil {
				return nil, fmt.Errorf("stack: layer %d: %w", i, err)
			}
			res.Layers = append(res.Layers, LayerResult{
				Visible: aeCfg.Visible, Hidden: aeCfg.Hidden,
				Train: &core.Result{Resumed: true}, AE: params, Restored: true,
			})
			cur = encodedSource(ctx, cur, aeCfg.Hidden, params.Encode)
			continue
		}
		model, err := autoencoder.Build(ctx, aeCfg)
		if err != nil {
			return nil, fmt.Errorf("stack: layer %d: %w", i, err)
		}
		layerCfg := trainCfg
		layerCfg.CheckpointPath = ckptPath
		layerCfg.ResumePath = ""
		if fileExists(ckptPath) {
			layerCfg.ResumePath = ckptPath
		}
		trainer := &core.Trainer{Dev: ctx.Dev, Cfg: layerCfg}
		tr, err := trainer.Run(model, cur)
		if err != nil {
			model.Free()
			return nil, fmt.Errorf("stack: layer %d: %w", i, err)
		}
		params := model.Download()
		model.Free()
		if err := finishLayer(ckptPath, donePath, params.Save); err != nil {
			return nil, fmt.Errorf("stack: layer %d: %w", i, err)
		}
		res.Layers = append(res.Layers, LayerResult{
			Visible: aeCfg.Visible, Hidden: aeCfg.Hidden, Train: tr, AE: params,
		})
		cur = encodedSource(ctx, cur, aeCfg.Hidden, params.Encode)
	}
	res.SimSeconds = ctx.Dev.Now()
	return res, nil
}

// PretrainDBN greedily trains one RBM per adjacent size pair (the Deep
// Belief Network construction of Hinton et al. that the paper describes).
// Layer-wise checkpointing via trainCfg.CheckpointPath works exactly as
// in PretrainAutoencoders.
func PretrainDBN(ctx *blas.Context, trainCfg core.TrainConfig, cfg Config, src data.Source, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src.Dim() != cfg.Sizes[0] {
		return nil, fmt.Errorf("stack: source dim %d, first layer wants %d", src.Dim(), cfg.Sizes[0])
	}
	res := &Result{}
	cur := src
	for i := 0; i+1 < len(cfg.Sizes); i++ {
		rCfg := cfg.RBM
		rCfg.Visible, rCfg.Hidden = cfg.Sizes[i], cfg.Sizes[i+1]
		rCfg.Batch, rCfg.Seed = cfg.Batch, seed+uint64(i)
		if rCfg.Momentum == 0 {
			rCfg.Momentum = cfg.Momentum
		}
		ckptPath, donePath := layerPaths(trainCfg.CheckpointPath, i)
		if fileExists(donePath) {
			params := rbm.NewParams(rCfg, 0)
			if err := loadParams(donePath, params.Load); err != nil {
				return nil, fmt.Errorf("stack: layer %d: %w", i, err)
			}
			res.Layers = append(res.Layers, LayerResult{
				Visible: rCfg.Visible, Hidden: rCfg.Hidden,
				Train: &core.Result{Resumed: true}, RBM: params, Restored: true,
			})
			cur = encodedSource(ctx, cur, rCfg.Hidden, params.Encode)
			continue
		}
		model, err := rbm.Build(ctx, rCfg)
		if err != nil {
			return nil, fmt.Errorf("stack: layer %d: %w", i, err)
		}
		layerCfg := trainCfg
		layerCfg.CheckpointPath = ckptPath
		layerCfg.ResumePath = ""
		if fileExists(ckptPath) {
			layerCfg.ResumePath = ckptPath
		}
		trainer := &core.Trainer{Dev: ctx.Dev, Cfg: layerCfg}
		tr, err := trainer.Run(model, cur)
		if err != nil {
			model.Free()
			return nil, fmt.Errorf("stack: layer %d: %w", i, err)
		}
		params := model.Download()
		model.Free()
		if err := finishLayer(ckptPath, donePath, params.Save); err != nil {
			return nil, fmt.Errorf("stack: layer %d: %w", i, err)
		}
		res.Layers = append(res.Layers, LayerResult{
			Visible: rCfg.Visible, Hidden: rCfg.Hidden, Train: tr, RBM: params,
		})
		cur = encodedSource(ctx, cur, rCfg.Hidden, params.Encode)
	}
	res.SimSeconds = ctx.Dev.Now()
	return res, nil
}

// encodedSource wraps base with a per-example encoder on numeric devices;
// on model-only devices only the geometry matters, so a Null source of the
// right shape is returned.
func encodedSource(ctx *blas.Context, base data.Source, hidden int, encode func(x, y []float64)) data.Source {
	if !ctx.Dev.Numeric {
		return data.Null{D: hidden, N: base.Len()}
	}
	return &Encoded{Base: base, Hidden: hidden, Encode: encode}
}

// Encoded is a data.Source that feeds each base example through a trained
// encoder — the Fig. 1 hand-off between stacked layers, executed by the
// host loading pipeline while streaming.
type Encoded struct {
	Base   data.Source
	Hidden int
	// Encode maps one base example x (len Base.Dim()) to its code y (len
	// Hidden). It must be safe for concurrent use.
	Encode func(x, y []float64)
}

// Dim implements data.Source.
func (e *Encoded) Dim() int { return e.Hidden }

// Len implements data.Source.
func (e *Encoded) Len() int { return e.Base.Len() }

// Chunk implements data.Source.
func (e *Encoded) Chunk(start, n int, dst *tensor.Matrix) {
	if dst.Rows != n || dst.Cols != e.Hidden {
		panic(fmt.Sprintf("stack: Encoded chunk destination %dx%d, want %dx%d", dst.Rows, dst.Cols, n, e.Hidden))
	}
	scratch := tensor.NewMatrix(n, e.Base.Dim())
	e.Base.Chunk(start, n, scratch)
	for i := 0; i < n; i++ {
		e.Encode(scratch.RowView(i), dst.RowView(i))
	}
}
