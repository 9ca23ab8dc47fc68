package serve

import (
	"bytes"
	"fmt"
	"sync"

	"phideep/internal/autoencoder"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/mlp"
	"phideep/internal/nn"
	"phideep/internal/rbm"
)

// modelKind discriminates the served model family.
type modelKind int

const (
	kindAE modelKind = iota
	kindRBM
	kindMLP
	kindConv
)

// Model is an immutable, host-side snapshot of a trained model ready to be
// served. The constructors deep-copy the parameters (copy-on-load), so the
// source — a live training run, a checkpoint buffer — can keep mutating
// without racing the server. Workers upload the snapshot into their private
// devices at startup and never write it.
type Model struct {
	kind modelKind

	aeCfg   autoencoder.Config
	rbmCfg  rbm.Config
	mlpCfg  mlp.Config
	convCfg convnet.Config

	ae *autoencoder.Params
	rb *rbm.Params
	ml *mlp.Params
	cv *convnet.Params

	// Float32 weight snapshots for Precision F32, converted lazily (first
	// worker that needs them) and exactly once, then shared read-only by
	// every reduced-precision replica.
	once32 sync.Once
	ae32   *autoencoder.Params32
	rb32   *rbm.Params32
	ml32   *mlp.Params32
	cv32   *convnet.Params32
}

// convert32 rounds the model's parameters to float32 once; subsequent calls
// are free. The snapshot is immutable like the f64 parameters it mirrors.
func (m *Model) convert32() {
	m.once32.Do(func() {
		switch m.kind {
		case kindAE:
			m.ae32 = m.ae.To32()
		case kindRBM:
			m.rb32 = m.rb.To32()
		case kindMLP:
			m.ml32 = m.ml.To32()
		case kindConv:
			m.cv32 = m.cv.To32()
		}
	})
}

// Autoencoder wraps autoencoder parameters for serving (Encode and
// Reconstruct). p is deep-copied; nil initializes fresh parameters from
// cfg.Seed (useful for load tests without a training run).
func Autoencoder(cfg autoencoder.Config, p *autoencoder.Params) *Model {
	if p == nil {
		p = autoencoder.NewParams(cfg, cfg.Seed)
	} else {
		p = p.Clone()
	}
	return &Model{kind: kindAE, aeCfg: cfg, ae: p}
}

// RBM wraps RBM parameters for serving (Encode and mean-field
// Reconstruct). p is deep-copied; nil initializes from cfg.Seed.
func RBM(cfg rbm.Config, p *rbm.Params) *Model {
	if p == nil {
		p = rbm.NewParams(cfg, cfg.Seed)
	} else {
		p = p.Clone()
	}
	return &Model{kind: kindRBM, rbmCfg: cfg, rb: p}
}

// MLP wraps classifier parameters for serving (Predict). p is deep-copied;
// nil initializes from cfg.Seed.
func MLP(cfg mlp.Config, p *mlp.Params) *Model {
	if p == nil {
		p = mlp.NewParams(cfg, cfg.Seed)
	} else {
		p = p.Clone()
	}
	return &Model{kind: kindMLP, mlpCfg: cfg, ml: p}
}

// Convnet wraps convolutional-classifier parameters for serving (Predict).
// p is deep-copied; nil initializes from cfg.Seed.
func Convnet(cfg convnet.Config, p *convnet.Params) *Model {
	if p == nil {
		p = convnet.NewParams(cfg, cfg.Seed)
	} else {
		p = p.Clone()
	}
	return &Model{kind: kindConv, convCfg: cfg, cv: p}
}

// readCheckpoint loads the parameters of a PHCK checkpoint written by
// core.Trainer or phitrain into ps. The checkpoint stores only the flat
// parameter data, so ps must have the geometry the model was trained
// with. The model blob is the parameter set followed by the trainer's RNG
// state, which serving does not need.
func readCheckpoint(path string, ps *nn.ParamSet) error {
	c, err := core.ReadCheckpoint(path)
	if err != nil {
		return err
	}
	if err := nn.LoadParamSet(bytes.NewReader(c.Model), ps); err != nil {
		return fmt.Errorf("serve: checkpoint %s: %w", path, err)
	}
	return nil
}

// AutoencoderFromCheckpoint loads autoencoder parameters from a PHCK
// checkpoint; cfg must describe the geometry it was trained with.
func AutoencoderFromCheckpoint(cfg autoencoder.Config, path string) (*Model, error) {
	p := autoencoder.NewParams(cfg, 0)
	if err := readCheckpoint(path, p.ParamSet()); err != nil {
		return nil, err
	}
	return &Model{kind: kindAE, aeCfg: cfg, ae: p}, nil
}

// RBMFromCheckpoint loads RBM parameters from a PHCK checkpoint.
func RBMFromCheckpoint(cfg rbm.Config, path string) (*Model, error) {
	p := rbm.NewParams(cfg, 0)
	if err := readCheckpoint(path, p.ParamSet()); err != nil {
		return nil, err
	}
	return &Model{kind: kindRBM, rbmCfg: cfg, rb: p}, nil
}

// MLPFromCheckpoint loads classifier parameters from a PHCK checkpoint.
func MLPFromCheckpoint(cfg mlp.Config, path string) (*Model, error) {
	p := mlp.NewParams(cfg, 0)
	if err := readCheckpoint(path, p.ParamSet()); err != nil {
		return nil, err
	}
	return &Model{kind: kindMLP, mlpCfg: cfg, ml: p}, nil
}

// ConvnetFromCheckpoint loads convnet parameters from a PHCK checkpoint.
func ConvnetFromCheckpoint(cfg convnet.Config, path string) (*Model, error) {
	p := convnet.NewParams(cfg, 0)
	if err := readCheckpoint(path, p.ParamSet()); err != nil {
		return nil, err
	}
	return &Model{kind: kindConv, convCfg: cfg, cv: p}, nil
}

// Kind names the model family: "autoencoder", "rbm", "mlp" or "convnet".
func (m *Model) Kind() string {
	switch m.kind {
	case kindAE:
		return "autoencoder"
	case kindRBM:
		return "rbm"
	case kindMLP:
		return "mlp"
	case kindConv:
		return "convnet"
	default:
		return fmt.Sprintf("kind(%d)", int(m.kind))
	}
}

// InputDim is the expected request vector length.
func (m *Model) InputDim() int {
	switch m.kind {
	case kindAE:
		return m.aeCfg.Visible
	case kindRBM:
		return m.rbmCfg.Visible
	case kindConv:
		return m.convCfg.InputDim()
	default:
		return m.mlpCfg.Sizes[0]
	}
}

// OutputDim is the response vector length for op.
func (m *Model) OutputDim(op Op) int {
	switch m.kind {
	case kindAE:
		if op == OpEncode {
			return m.aeCfg.Hidden
		}
		return m.aeCfg.Visible
	case kindRBM:
		if op == OpEncode {
			return m.rbmCfg.Hidden
		}
		return m.rbmCfg.Visible
	case kindConv:
		return m.convCfg.Classes
	default:
		return m.mlpCfg.Sizes[len(m.mlpCfg.Sizes)-1]
	}
}

// Ops lists the operations this model answers.
func (m *Model) Ops() []Op {
	if m.kind == kindMLP || m.kind == kindConv {
		return []Op{OpPredict}
	}
	return []Op{OpEncode, OpReconstruct}
}

// supports reports whether op is valid for the model family.
func (m *Model) supports(op Op) bool {
	if m.kind == kindMLP || m.kind == kindConv {
		return op == OpPredict
	}
	return op == OpEncode || op == OpReconstruct
}

// hostInfer answers one request on the calling goroutine with the scalar
// host reference — the Degrade path. Bit-identical to the device path at
// core.Baseline; toleranced (≈1e-12 relative) against the blocked levels,
// which reorder the reduction. An op the model family does not implement
// returns *UnsupportedOpError rather than falling through to a different
// family's forward pass.
func (m *Model) hostInfer(op Op, x []float64) ([]float64, error) {
	if !m.supports(op) {
		return nil, &UnsupportedOpError{Kind: m.Kind(), Op: op}
	}
	out := make([]float64, m.OutputDim(op))
	switch m.kind {
	case kindAE:
		if op == OpEncode {
			m.ae.Encode(x, out)
		} else {
			m.ae.Reconstruct(x, out, m.aeCfg.Tied)
		}
	case kindRBM:
		if op == OpEncode {
			m.rb.Encode(x, out)
		} else {
			m.rb.Reconstruct(x, out, m.rbmCfg.GaussianVisible)
		}
	case kindMLP:
		copy(out, m.ml.PredictProbs(m.mlpCfg, x))
	case kindConv:
		copy(out, m.cv.PredictProbs(m.convCfg, x))
	default:
		return nil, &UnsupportedOpError{Kind: m.Kind(), Op: op}
	}
	return out, nil
}
