package serve

import (
	"bytes"
	"fmt"
	"sync"

	"phideep/internal/autoencoder"
	"phideep/internal/blas"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/mlp"
	"phideep/internal/nn"
	"phideep/internal/parallel"
	"phideep/internal/rbm"
	"phideep/internal/tensor"
)

// Model is an immutable, host-side snapshot of a trained model ready to be
// served. The constructors deep-copy the parameters (copy-on-load), so the
// source — a live training run, a checkpoint buffer — can keep mutating
// without racing the server. Workers build their replicas from it at
// startup and never write it.
type Model struct {
	f family
}

// family is one served model kind as the server and its workers see it.
// The four family constructors below fill it in; they are the only code in
// the package that names a model package.
type family struct {
	kind string
	// in is the request width; out[op] the response width, 0 for an op
	// the family does not answer.
	in  int
	out [numOps]int
	// validate checks the config the model was loaded with.
	validate func() error
	// reference answers one row of op into out with the scalar host
	// forward pass (the Degrade path).
	reference func(op Op, x, out []float64)
	// replica builds a forward-only f64 replica for up to maxBatch rows on
	// ctx's device.
	replica func(ctx *blas.Context, maxBatch int) (replica, error)
	// replica32 builds a host float32 replica for up to maxBatch rows. It
	// owns the family's f32 weight snapshot: converted by the first call,
	// exactly once, then shared read-only by every replica like the f64
	// parameters it mirrors.
	replica32 func(pool *parallel.Pool, lvl kernels.Level, maxBatch int) replica32
}

// replica is a device-resident f64 forward pass; its output is a view of
// the replica's workspace valid until the next call.
type replica interface {
	forward(op Op, x *device.Buffer) *device.Buffer
	Free()
}

// replica32 is a host float32 forward pass; its output is a view of the
// replica's workspace valid until the next call.
type replica32 interface {
	forward(op Op, x *tensor.Matrix32) *tensor.Matrix32
}

// codecModel is a device model with an encoder and a decoder.
type codecModel interface {
	Encode(x *device.Buffer) *device.Buffer
	Reconstruct(x *device.Buffer) *device.Buffer
	Free()
}

type codecReplica struct{ codecModel }

func (r codecReplica) forward(op Op, x *device.Buffer) *device.Buffer {
	if op == OpEncode {
		return r.Encode(x)
	}
	return r.Reconstruct(x)
}

// classifierModel is a device model with one forward pass.
type classifierModel interface {
	Infer(x *device.Buffer) *device.Buffer
	Free()
}

type classifierReplica struct{ classifierModel }

func (r classifierReplica) forward(_ Op, x *device.Buffer) *device.Buffer { return r.Infer(x) }

// codecChain serves an encoder/decoder pair as a two-layer dense chain:
// Encode runs the first layer, Reconstruct both.
type codecChain struct{ *nn.Chain32 }

func (c codecChain) forward(op Op, x *tensor.Matrix32) *tensor.Matrix32 {
	if op == OpEncode {
		return c.Run(x, 1)
	}
	return c.Run(x, 2)
}

// inferer32 is a host float32 replica with one forward pass.
type inferer32 interface {
	Infer(x *tensor.Matrix32) *tensor.Matrix32
}

type classifier32 struct{ inferer32 }

func (c classifier32) forward(_ Op, x *tensor.Matrix32) *tensor.Matrix32 { return c.Infer(x) }

// codecWidths are the response widths of an encoder/decoder family.
func codecWidths(visible, hidden int) (out [numOps]int) {
	out[OpEncode], out[OpReconstruct] = hidden, visible
	return out
}

// classifierWidths are the response widths of a classifier family.
func classifierWidths(classes int) (out [numOps]int) {
	out[OpPredict] = classes
	return out
}

// codecReplicas32 is the f32 replica builder of an encoder/decoder family:
// a chain over the two layers that layers converts on first use.
func codecReplicas32(layers func() []*nn.Dense32) func(*parallel.Pool, kernels.Level, int) replica32 {
	snap := sync.OnceValue(layers)
	return func(pool *parallel.Pool, lvl kernels.Level, maxBatch int) replica32 {
		return codecChain{nn.NewChain32(pool, lvl, maxBatch, snap())}
	}
}

// autoencoderModel serves an autoencoder: Encode is σ(x·W1+b1) (Eq. 1),
// Reconstruct decodes it with W2, or with W1ᵀ when the weights are tied.
func autoencoderModel(cfg autoencoder.Config, p *autoencoder.Params) *Model {
	return &Model{family{
		kind: "autoencoder", in: cfg.Visible, out: codecWidths(cfg.Visible, cfg.Hidden), validate: cfg.Validate,
		reference: func(op Op, x, out []float64) {
			if op == OpEncode {
				p.Encode(x, out)
			} else {
				p.Reconstruct(x, out, cfg.Tied)
			}
		},
		replica: func(ctx *blas.Context, maxBatch int) (replica, error) {
			m, err := autoencoder.NewInference(ctx, cfg, maxBatch, p)
			return codecReplica{m}, err
		},
		replica32: codecReplicas32(func() []*nn.Dense32 { return autoencoderLayers32(cfg, p) }),
	}}
}

// autoencoderLayers32 packs the encoder and the one decoder cfg uses.
func autoencoderLayers32(cfg autoencoder.Config, p *autoencoder.Params) []*nn.Dense32 {
	dec := nn.NewDense32(p.W1, true, p.B2, nn.ActSigmoid)
	if !cfg.Tied {
		dec = nn.NewDense32(p.W2, false, p.B2, nn.ActSigmoid)
	}
	return []*nn.Dense32{nn.NewDense32(p.W1, false, p.B1, nn.ActSigmoid), dec}
}

// rbmModel serves an RBM: Encode is the hidden conditional σ(v·W+c),
// Reconstruct the mean-field visible one, h·Wᵀ+b squashed by σ for binary
// visibles and left linear for Gaussian ones.
func rbmModel(cfg rbm.Config, p *rbm.Params) *Model {
	return &Model{family{
		kind: "rbm", in: cfg.Visible, out: codecWidths(cfg.Visible, cfg.Hidden),
		// Validate defaults fields in place; check a copy.
		validate: func() error { c := cfg; return c.Validate() },
		reference: func(op Op, x, out []float64) {
			if op == OpEncode {
				p.Encode(x, out)
			} else {
				p.Reconstruct(x, out, cfg.GaussianVisible)
			}
		},
		replica: func(ctx *blas.Context, maxBatch int) (replica, error) {
			m, err := rbm.NewInference(ctx, cfg, maxBatch, p)
			return codecReplica{m}, err
		},
		replica32: codecReplicas32(func() []*nn.Dense32 {
			visible := nn.ActSigmoid
			if cfg.GaussianVisible {
				visible = nn.ActIdentity
			}
			return []*nn.Dense32{nn.NewDense32(p.W, false, p.C, nn.ActSigmoid), nn.NewDense32(p.W, true, p.B, visible)}
		}),
	}}
}

// mlpModel serves the deep classifier's Predict.
func mlpModel(cfg mlp.Config, p *mlp.Params) *Model {
	in, classes := 0, 0 // for a config too short to index, which validate rejects
	if n := len(cfg.Sizes); n > 0 {
		in, classes = cfg.Sizes[0], cfg.Sizes[n-1]
	}
	snap := sync.OnceValue(p.To32)
	return &Model{family{
		kind: "mlp", in: in, out: classifierWidths(classes), validate: cfg.Validate,
		reference: func(_ Op, x, out []float64) { copy(out, p.PredictProbs(cfg, x)) },
		replica: func(ctx *blas.Context, maxBatch int) (replica, error) {
			m, err := mlp.NewInference(ctx, cfg, maxBatch, p)
			return classifierReplica{m}, err
		},
		replica32: func(pool *parallel.Pool, lvl kernels.Level, maxBatch int) replica32 {
			return classifier32{mlp.NewInference32(pool, lvl, cfg, maxBatch, snap())}
		},
	}}
}

// convnetModel serves the convolutional classifier's Predict.
func convnetModel(cfg convnet.Config, p *convnet.Params) *Model {
	snap := sync.OnceValue(p.To32)
	return &Model{family{
		kind: "convnet", in: cfg.InputDim(), out: classifierWidths(cfg.Classes), validate: cfg.Validate,
		reference: func(_ Op, x, out []float64) { copy(out, p.PredictProbs(cfg, x)) },
		replica: func(ctx *blas.Context, maxBatch int) (replica, error) {
			m, err := convnet.NewInference(ctx, cfg, maxBatch, p)
			return classifierReplica{m}, err
		},
		replica32: func(pool *parallel.Pool, lvl kernels.Level, maxBatch int) replica32 {
			return classifier32{convnet.NewInference32(pool, lvl, cfg, maxBatch, snap())}
		},
	}}
}

// Autoencoder wraps autoencoder parameters for serving (Encode and
// Reconstruct). p is deep-copied; nil initializes fresh parameters from
// cfg.Seed (useful for load tests without a training run).
func Autoencoder(cfg autoencoder.Config, p *autoencoder.Params) *Model {
	if p == nil {
		return autoencoderModel(cfg, autoencoder.NewParams(cfg, cfg.Seed))
	}
	return autoencoderModel(cfg, p.Clone())
}

// RBM wraps RBM parameters for serving (Encode and mean-field
// Reconstruct). p is deep-copied; nil initializes from cfg.Seed.
func RBM(cfg rbm.Config, p *rbm.Params) *Model {
	if p == nil {
		return rbmModel(cfg, rbm.NewParams(cfg, cfg.Seed))
	}
	return rbmModel(cfg, p.Clone())
}

// MLP wraps classifier parameters for serving (Predict). p is deep-copied;
// nil initializes from cfg.Seed.
func MLP(cfg mlp.Config, p *mlp.Params) *Model {
	if p == nil {
		return mlpModel(cfg, mlp.NewParams(cfg, cfg.Seed))
	}
	return mlpModel(cfg, p.Clone())
}

// Convnet wraps convolutional-classifier parameters for serving (Predict).
// p is deep-copied; nil initializes from cfg.Seed.
func Convnet(cfg convnet.Config, p *convnet.Params) *Model {
	if p == nil {
		return convnetModel(cfg, convnet.NewParams(cfg, cfg.Seed))
	}
	return convnetModel(cfg, p.Clone())
}

// loadCheckpoint loads the parameters of a PHCK checkpoint written by
// core.Trainer or phitrain into ps, the parameters of m. The checkpoint
// stores only the flat parameter data, so ps must have the geometry the
// model was trained with. The model blob is the parameter set followed by
// the trainer's RNG state, which serving does not need.
func loadCheckpoint(m *Model, ps *nn.ParamSet, path string) (*Model, error) {
	c, err := core.ReadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadParamSet(bytes.NewReader(c.Model), ps); err != nil {
		return nil, fmt.Errorf("serve: checkpoint %s: %w", path, err)
	}
	return m, nil
}

// AutoencoderFromCheckpoint loads autoencoder parameters from a PHCK
// checkpoint; cfg must describe the geometry it was trained with.
func AutoencoderFromCheckpoint(cfg autoencoder.Config, path string) (*Model, error) {
	p := autoencoder.NewParams(cfg, 0)
	return loadCheckpoint(autoencoderModel(cfg, p), p.ParamSet(), path)
}

// RBMFromCheckpoint loads RBM parameters from a PHCK checkpoint.
func RBMFromCheckpoint(cfg rbm.Config, path string) (*Model, error) {
	p := rbm.NewParams(cfg, 0)
	return loadCheckpoint(rbmModel(cfg, p), p.ParamSet(), path)
}

// MLPFromCheckpoint loads classifier parameters from a PHCK checkpoint.
func MLPFromCheckpoint(cfg mlp.Config, path string) (*Model, error) {
	p := mlp.NewParams(cfg, 0)
	return loadCheckpoint(mlpModel(cfg, p), p.ParamSet(), path)
}

// ConvnetFromCheckpoint loads convnet parameters from a PHCK checkpoint.
func ConvnetFromCheckpoint(cfg convnet.Config, path string) (*Model, error) {
	p := convnet.NewParams(cfg, 0)
	return loadCheckpoint(convnetModel(cfg, p), p.ParamSet(), path)
}

// Kind names the model family: "autoencoder", "rbm", "mlp" or "convnet".
func (m *Model) Kind() string { return m.f.kind }

// InputDim is the expected request vector length.
func (m *Model) InputDim() int { return m.f.in }

// OutputDim is the response vector length for op, 0 for an op the model
// does not answer.
func (m *Model) OutputDim(op Op) int {
	if op < 0 || op >= numOps {
		return 0
	}
	return m.f.out[op]
}

// Ops lists the operations this model answers.
func (m *Model) Ops() []Op {
	var ops []Op
	for op := Op(0); op < numOps; op++ {
		if m.f.out[op] > 0 {
			ops = append(ops, op)
		}
	}
	return ops
}

// hostInfer answers one request on the calling goroutine with the scalar
// host reference — the Degrade path. Bit-identical to the device path at
// core.Baseline; toleranced (≈1e-12 relative) against the blocked levels,
// which reorder the reduction. An op the model family does not implement
// returns *UnsupportedOpError rather than falling through to a different
// family's forward pass.
func (m *Model) hostInfer(op Op, x []float64) ([]float64, error) {
	n := m.OutputDim(op)
	if n == 0 {
		return nil, &UnsupportedOpError{Kind: m.Kind(), Op: op}
	}
	out := make([]float64, n)
	m.f.reference(op, x, out)
	return out, nil
}
