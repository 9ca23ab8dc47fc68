package nn

import (
	"math"
	"testing"

	"phideep/internal/kernels"
	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// denseRef is the float64 scalar forward pass of one dense layer over the
// weights rounded to T, the oracle the chain is held to.
func denseRef[T tensor.Float](x []float64, w *tensor.Matrix, transW bool, b tensor.Vector, act Activation) []float64 {
	n := len(b)
	y := make([]float64, n)
	for j := range y {
		s := 0.0
		for i, xi := range x {
			var wij float64
			if transW {
				wij = w.At(j, i)
			} else {
				wij = w.At(i, j)
			}
			s += xi * float64(T(wij))
		}
		y[j] = s + float64(T(b[j]))
	}
	switch act {
	case ActSigmoid:
		for j, v := range y {
			y[j] = Sigmoid(v)
		}
	case ActSoftmax:
		sum := 0.0
		for j, v := range y {
			y[j] = math.Exp(v)
			sum += y[j]
		}
		for j := range y {
			y[j] /= sum
		}
	}
	return y
}

// TestChain32MatchesScalar runs a three-layer float32 chain — sigmoid, a
// transposed identity layer and softmax, the three forms the served
// families use — to every depth at every kernel level, against the scalar
// oracle within float32 rounding.
func TestChain32MatchesScalar(t *testing.T) { testChainMatchesScalar[float32](t, 1e-5) }

// TestChain64MatchesScalar is TestChain32MatchesScalar for the float64
// chain the f64 server runs, within float64 reduction-order noise.
func TestChain64MatchesScalar(t *testing.T) { testChainMatchesScalar[float64](t, 1e-12) }

func testChainMatchesScalar[T tensor.Float](t *testing.T, tol float64) {
	r := rng.New(5)
	vec := func(n int) tensor.Vector { return tensor.Vector(tensor.NewMatrix(1, n).Randomize(r, -1, 1).Data) }
	type spec struct {
		w      *tensor.Matrix
		transW bool
		b      tensor.Vector
		act    Activation
	}
	specs := []spec{
		{tensor.NewMatrix(9, 6).Randomize(r, -1, 1), false, vec(6), ActSigmoid},
		{tensor.NewMatrix(5, 6).Randomize(r, -1, 1), true, vec(5), ActIdentity},
		{tensor.NewMatrix(5, 4).Randomize(r, -1, 1), false, vec(4), ActSoftmax},
	}
	layers := make([]*Dense[T], len(specs))
	for l, s := range specs {
		layers[l] = NewDense[T](s.w, s.transW, s.b, s.act)
	}
	x := tensor.NewMatrix(3, 9).Randomize(r, 0, 1)
	xT := tensor.As[T](x)
	pool := parallel.NewPool(2)
	defer pool.Close()

	for _, lvl := range kernels.Levels {
		c := NewChain(pool, lvl, 5, layers)
		if c.Depth() != len(specs) {
			t.Fatalf("depth %d, want %d", c.Depth(), len(specs))
		}
		for depth := 1; depth <= len(specs); depth++ {
			got := c.Run(xT, depth)
			for i := 0; i < x.Rows; i++ {
				want := x.RowView(i)
				for _, s := range specs[:depth] {
					want = denseRef[T](want, s.w, s.transW, s.b, s.act)
				}
				row := got.RowView(i)
				if len(row) != len(want) {
					t.Fatalf("level %v depth %d: width %d, want %d", lvl, depth, len(row), len(want))
				}
				for j, v := range want {
					if d := math.Abs(float64(row[j]) - v); d > tol {
						t.Fatalf("level %v depth %d row %d out[%d] = %g, want %g", lvl, depth, i, j, row[j], v)
					}
				}
			}
		}
	}
}

// TestChain32RejectsOversizedBatch pins the workspace bound.
func TestChain32RejectsOversizedBatch(t *testing.T) {
	c := NewChain(nil, kernels.Naive, 2, []*Dense32{NewDense[float32](tensor.NewMatrix(3, 2), false, tensor.NewVector(2), ActSigmoid)})
	defer func() {
		if recover() == nil {
			t.Fatal("a batch larger than the workspace must panic")
		}
	}()
	c.Run(tensor.NewMatrix32(3, 3), 1)
}
