package serve

import (
	"bytes"
	"fmt"
	"sync"

	"phideep/internal/autoencoder"
	"phideep/internal/convnet"
	"phideep/internal/core"
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
	// replica builds a worker's replica at each precision. The builder at
	// a precision owns the family's weight snapshot at that precision:
	// packed by its first call, exactly once, then shared read-only by
	// every replica like the float64 parameters it is made from.
	replica [numPrecisions]builder
}

// builder builds one host replica for up to maxBatch rows. pool may be nil
// for sequential execution; lvl picks the kernel ladder rung.
type builder func(pool *parallel.Pool, lvl kernels.Level, maxBatch int) replica

// replica is one worker's forward pass. It is not safe for concurrent use.
type replica interface {
	// forward runs op on the inputs of a batch of at most maxBatch
	// requests and returns their outputs in one fresh slice, row i at
	// out[i*cols : (i+1)*cols].
	forward(op Op, batch []*request) (out []float64, cols int)
}

// hostReplica is the replica at precision T: the batch's rows are staged
// into x, converted to T, run through run, and copied out widened to
// float64. Per-row results do not depend on the batch's composition (every
// kernel partitions and reduces per row), so coalescing never changes an
// answer bit.
type hostReplica[T tensor.Float] struct {
	x   *tensor.Dense[T] // maxBatch×in; a batch uses its head rows
	run func(op Op, x *tensor.Dense[T]) *tensor.Dense[T]
}

func (r *hostReplica[T]) forward(op Op, batch []*request) ([]float64, int) {
	x := r.x.RowsView(0, len(batch))
	for i, q := range batch {
		tensor.Convert(x.RowView(i), q.in)
	}
	y := r.run(op, x)
	out := make([]float64, y.Rows*y.Cols)
	for i := 0; i < y.Rows; i++ {
		tensor.Convert(out[i*y.Cols:(i+1)*y.Cols], y.RowView(i))
	}
	return out, y.Cols
}

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

// codecReplicas is the builder at T of an encoder/decoder family served as
// a two-layer dense chain, the layers packed on first use: Encode runs the
// first layer, Reconstruct both.
func codecReplicas[T tensor.Float](visible int, layers func() []*nn.Dense[T]) builder {
	snap := sync.OnceValue(layers)
	return func(pool *parallel.Pool, lvl kernels.Level, maxBatch int) replica {
		c := nn.NewChain(pool, lvl, maxBatch, snap())
		return &hostReplica[T]{x: tensor.New[T](maxBatch, visible), run: func(op Op, x *tensor.Dense[T]) *tensor.Dense[T] {
			if op == OpEncode {
				return c.Run(x, 1)
			}
			return c.Run(x, 2)
		}}
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
		replica: [numPrecisions]builder{F64: autoencoderReplicas[float64](cfg, p), F32: autoencoderReplicas[float32](cfg, p)},
	}}
}

func autoencoderReplicas[T tensor.Float](cfg autoencoder.Config, p *autoencoder.Params) builder {
	return codecReplicas(cfg.Visible, func() []*nn.Dense[T] { return autoencoderLayers[T](cfg, p) })
}

// autoencoderLayers packs the encoder and the one decoder cfg uses.
func autoencoderLayers[T tensor.Float](cfg autoencoder.Config, p *autoencoder.Params) []*nn.Dense[T] {
	dec := nn.NewDense[T](p.W1, true, p.B2, nn.ActSigmoid)
	if !cfg.Tied {
		dec = nn.NewDense[T](p.W2, false, p.B2, nn.ActSigmoid)
	}
	return []*nn.Dense[T]{nn.NewDense[T](p.W1, false, p.B1, nn.ActSigmoid), dec}
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
		replica: [numPrecisions]builder{F64: rbmReplicas[float64](cfg, p), F32: rbmReplicas[float32](cfg, p)},
	}}
}

func rbmReplicas[T tensor.Float](cfg rbm.Config, p *rbm.Params) builder {
	return codecReplicas(cfg.Visible, func() []*nn.Dense[T] {
		visible := nn.ActSigmoid
		if cfg.GaussianVisible {
			visible = nn.ActIdentity
		}
		return []*nn.Dense[T]{nn.NewDense[T](p.W, false, p.C, nn.ActSigmoid), nn.NewDense[T](p.W, true, p.B, visible)}
	})
}

// mlpModel serves the deep classifier's Predict.
func mlpModel(cfg mlp.Config, p *mlp.Params) *Model {
	in, classes := 0, 0 // for a config too short to index, which validate rejects
	if n := len(cfg.Sizes); n > 0 {
		in, classes = cfg.Sizes[0], cfg.Sizes[n-1]
	}
	return &Model{family{
		kind: "mlp", in: in, out: classifierWidths(classes), validate: cfg.Validate,
		reference: func(_ Op, x, out []float64) { copy(out, p.PredictProbs(cfg, x)) },
		replica:   [numPrecisions]builder{F64: mlpReplicas[float64](cfg, p), F32: mlpReplicas[float32](cfg, p)},
	}}
}

func mlpReplicas[T tensor.Float](cfg mlp.Config, p *mlp.Params) builder {
	snap := sync.OnceValue(func() *mlp.HostParams[T] { return mlp.NewHostParams[T](p) })
	return func(pool *parallel.Pool, lvl kernels.Level, maxBatch int) replica {
		m := mlp.NewHostInference(pool, lvl, cfg, maxBatch, snap())
		return &hostReplica[T]{x: tensor.New[T](maxBatch, cfg.Sizes[0]), run: func(_ Op, x *tensor.Dense[T]) *tensor.Dense[T] { return m.Infer(x) }}
	}
}

// convnetModel serves the convolutional classifier's Predict.
func convnetModel(cfg convnet.Config, p *convnet.Params) *Model {
	return &Model{family{
		kind: "convnet", in: cfg.InputDim(), out: classifierWidths(cfg.Classes), validate: cfg.Validate,
		reference: func(_ Op, x, out []float64) { copy(out, p.PredictProbs(cfg, x)) },
		replica:   [numPrecisions]builder{F64: convnetReplicas[float64](cfg, p), F32: convnetReplicas[float32](cfg, p)},
	}}
}

func convnetReplicas[T tensor.Float](cfg convnet.Config, p *convnet.Params) builder {
	snap := sync.OnceValue(func() *convnet.HostParams[T] { return convnet.NewHostParams[T](p) })
	return func(pool *parallel.Pool, lvl kernels.Level, maxBatch int) replica {
		m := convnet.NewHostInference(pool, lvl, cfg, maxBatch, snap())
		return &hostReplica[T]{x: tensor.New[T](maxBatch, cfg.InputDim()), run: func(_ Op, x *tensor.Dense[T]) *tensor.Dense[T] { return m.Infer(x) }}
	}
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
// host reference — the Degrade path. Bit-identical to the f64 replicas at
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
