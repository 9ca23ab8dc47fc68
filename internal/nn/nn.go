// Package nn holds the neural-network primitives shared by phideep's model
// packages: scalar activations, weight-initialization conventions, the
// flat parameter/gradient views used by the batch optimizers (CG, L-BFGS)
// that the paper discusses as the parallelism-friendly alternative to
// online SGD, the one path every model moves its parameters by (device
// upload/download and the checkpoint codec), and the Conv2D/MaxPool2D
// layer types of the convolutional
// workload family (im2col-form parameters plus their scalar direct
// references).
package nn

import (
	"fmt"
	"math"

	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Sigmoid is the logistic function 1/(1+e^(−x)), over kernels.Exp: the
// scalar form of kernels.Sigmoid, bitwise.
func Sigmoid(x float64) float64 { return 1 / (1 + kernels.Exp(-x)) }

// SoftmaxRow normalizes row in place with the max-subtracted exponential
// and a single 1/sum multiply — the operation order of kernels.SoftmaxRows,
// so Baseline-level device outputs match the scalar model references
// bitwise.
func SoftmaxRow(row []float64) {
	maxV := math.Inf(-1)
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for j, v := range row {
		e := kernels.Exp(v - maxV)
		row[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range row {
		row[j] *= inv
	}
}

// SigmoidPrime is σ'(x) expressed through y = σ(x): y·(1−y).
func SigmoidPrime(y float64) float64 { return y * (1 - y) }

// InitRange returns the symmetric uniform initialization half-width
// √(6/(fanIn+fanOut)) conventional for sigmoid autoencoders (Glorot &
// Bengio). Weights start in U(−r, r); biases at zero.
func InitRange(fanIn, fanOut int) float64 {
	return math.Sqrt(6 / float64(fanIn+fanOut))
}

// InitMatrix fills w with U(−r, r), r = InitRange(w.Rows, w.Cols).
func InitMatrix(w *tensor.Matrix, r *rng.RNG) {
	hw := InitRange(w.Rows, w.Cols)
	w.Randomize(r, -hw, hw)
}

// ParamSet is an ordered collection of named parameter tensors with a flat
// float64 view, the representation the batch optimizers work in.
type ParamSet struct {
	names    []string
	mats     []*tensor.Matrix
	vecs     []tensor.Vector
	isMatrix []bool
}

// AddMatrix registers a matrix parameter.
func (p *ParamSet) AddMatrix(name string, m *tensor.Matrix) {
	p.names = append(p.names, name)
	p.mats = append(p.mats, m)
	p.vecs = append(p.vecs, nil)
	p.isMatrix = append(p.isMatrix, true)
}

// AddVector registers a vector parameter.
func (p *ParamSet) AddVector(name string, v tensor.Vector) {
	p.names = append(p.names, name)
	p.mats = append(p.mats, nil)
	p.vecs = append(p.vecs, v)
	p.isMatrix = append(p.isMatrix, false)
}

// Len returns the total number of scalar parameters.
func (p *ParamSet) Len() int {
	n := 0
	for i := range p.names {
		if p.isMatrix[i] {
			n += p.mats[i].Rows * p.mats[i].Cols
		} else {
			n += len(p.vecs[i])
		}
	}
	return n
}

// Flatten copies all parameters into dst (allocated when nil) in
// registration order and returns it.
func (p *ParamSet) Flatten(dst tensor.Vector) tensor.Vector {
	if dst == nil {
		dst = tensor.NewVector(p.Len())
	}
	if len(dst) != p.Len() {
		panic(fmt.Sprintf("nn: Flatten into length %d, want %d", len(dst), p.Len()))
	}
	k := 0
	for i := range p.names {
		if p.isMatrix[i] {
			m := p.mats[i]
			for r := 0; r < m.Rows; r++ {
				k += copy(dst[k:], m.RowView(r))
			}
		} else {
			k += copy(dst[k:], p.vecs[i])
		}
	}
	return dst
}

// Unflatten copies src back into the registered parameter tensors.
func (p *ParamSet) Unflatten(src tensor.Vector) {
	if len(src) != p.Len() {
		panic(fmt.Sprintf("nn: Unflatten from length %d, want %d", len(src), p.Len()))
	}
	k := 0
	for i := range p.names {
		if p.isMatrix[i] {
			m := p.mats[i]
			for r := 0; r < m.Rows; r++ {
				k += copy(m.RowView(r), src[k:k+m.Cols])
			}
		} else {
			k += copy(p.vecs[i], src[k:k+len(p.vecs[i])])
		}
	}
}

// Names returns the registered parameter names in order.
func (p *ParamSet) Names() []string { return append([]string(nil), p.names...) }

// host returns parameter i as a matrix (a vector as one row).
func (p *ParamSet) host(i int) *tensor.Matrix {
	if p.isMatrix[i] {
		return p.mats[i]
	}
	return p.vecs[i].AsRow()
}

// CopyIn uploads the parameters into a model's device tensors, one PCIe
// transfer each in registration order. bufs[i] receives parameter i; a nil
// entry is skipped (a tensor the model shares with another, like a tied
// decoder).
func (p *ParamSet) CopyIn(dev *device.Device, bufs []*device.Buffer) {
	p.checkBufs(bufs)
	for i, b := range bufs {
		if b != nil {
			dev.CopyIn(b, p.host(i), 0)
		}
	}
}

// CopyOut downloads a model's device tensors into the parameters, the
// inverse of CopyIn. On a model-only device the parameters are untouched.
func (p *ParamSet) CopyOut(dev *device.Device, bufs []*device.Buffer) {
	p.checkBufs(bufs)
	for i, b := range bufs {
		if b != nil {
			dev.CopyOut(b, p.host(i))
		}
	}
}

func (p *ParamSet) checkBufs(bufs []*device.Buffer) {
	if len(bufs) != len(p.names) {
		panic(fmt.Sprintf("nn: %d device tensors for %d parameters", len(bufs), len(p.names)))
	}
}
