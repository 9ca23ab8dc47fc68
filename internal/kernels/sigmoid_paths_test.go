package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// Sigmoid path property suite: on every path this build and CPU can run,
// at a scalar and a vectorized level and pool sizes 1, 2 and 5, Sigmoid at
// both precisions must be bitwise the scalar loop over Exp — for every row
// length 0…67 (each 4-lane tail), in place and out of place, on strided
// row views, with lanes the vector kernel must hand back to Exp at the
// start, middle and end of a row.

// sigmoidHostile are arguments outside the vector kernel's (−708, 708):
// NaN, infinities, the range edges, the overflow and denormal bands.
var sigmoidHostile = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 708, -708, 709.78, -709.78,
	710, -710, 745.5, -745.5, 800, -1e300, math.MaxFloat64, -math.MaxFloat64,
}

// sigmoidRows fills an n-column matrix with stride stride: row 0 benign,
// rows 1–3 with one hostile lane at the start, middle and end, row 4 with
// a hostile lane in about one block of three. Benign lanes include the
// signed zeros, subnormals, the edges just inside (−708, 708) and the
// arguments whose k rounds a tie to even.
func sigmoidRows(r *rng.RNG, n, stride int) *tensor.Matrix {
	const rows = 5
	m := &tensor.Matrix{Rows: rows, Cols: n, Stride: stride, Data: make([]float64, rows*stride)}
	benign := []float64{0, math.Copysign(0, -1), 0x1p-1070, -0x1p-1070, 707.99, -707.99}
	for _, x := range expTies(-8.5, 8) {
		benign = append(benign, -x)
	}
	for i := range m.Data {
		m.Data[i] = -40 + 80*r.Float64()
		if r.Intn(8) == 0 {
			m.Data[i] = benign[r.Intn(len(benign))]
		}
	}
	if n == 0 {
		return m
	}
	hostile := func() float64 { return sigmoidHostile[r.Intn(len(sigmoidHostile))] }
	m.Set(1, 0, hostile())
	m.Set(2, n/2, hostile())
	m.Set(3, n-1, hostile())
	for j := 0; j < n; j++ {
		if r.Intn(12) == 0 {
			m.Set(4, j, hostile())
		}
	}
	return m
}

func TestSigmoidPathsMatchScalar(t *testing.T) {
	paths := availablePaths(t)
	r := rng.New(35)
	for _, workers := range []int{1, 2, 5} {
		pool := parallel.NewPool(workers)
		for n := 0; n <= 67; n++ {
			for _, stride := range []int{n, n + 3} {
				src := sigmoidRows(r, n, stride)
				want := src.Clone()
				for i := range want.Rows {
					row := want.RowView(i)
					for j, v := range row {
						row[j] = sigmoid(v)
					}
				}
				src32 := src.To32()
				want32 := tensor.NewMatrix32(src.Rows, n)
				for i := range src.Rows {
					for j, v := range src32.RowView(i) {
						want32.Set(i, j, sigmoidOf(v))
					}
				}
				for _, p := range paths {
					for _, lvl := range []Level{Naive, ParallelBlocked} {
						name := fmt.Sprintf("%s/%s/workers=%d/n=%d/stride=%d", pathNames[p], lvl, workers, n, stride)
						withPath(p, func() {
							checkSigmoid(t, name, pool, lvl, src, want)
							checkSigmoid32(t, name, pool, lvl, src32, want32)
						})
					}
				}
			}
		}
		pool.Close()
	}
}

// checkSigmoid runs Sigmoid out of place into a dense matrix and into a
// strided view whose padding must stay untouched, then in place, and
// compares each with want bitwise.
func checkSigmoid(t *testing.T, name string, pool *parallel.Pool, lvl Level, src, want *tensor.Matrix) {
	t.Helper()
	const pad = 1234.5
	for _, stride := range []int{src.Cols, src.Cols + 1} {
		dst := &tensor.Matrix{Rows: src.Rows, Cols: src.Cols, Stride: stride, Data: make([]float64, src.Rows*stride)}
		for i := range dst.Data {
			dst.Data[i] = pad
		}
		Sigmoid(pool, lvl, dst, src)
		for i := range src.Rows {
			if !bitsEqual(dst.RowView(i), want.RowView(i)) {
				t.Fatalf("%s: dst stride %d, row %d = %v, want %v (src %v)", name, stride, i, dst.RowView(i), want.RowView(i), src.RowView(i))
			}
			if stride > src.Cols && dst.Data[i*stride+src.Cols] != pad {
				t.Fatalf("%s: row %d wrote past its end", name, i)
			}
		}
	}
	inPlace := src.Clone()
	Sigmoid(pool, lvl, inPlace, inPlace)
	for i := range src.Rows {
		if !bitsEqual(inPlace.RowView(i), want.RowView(i)) {
			t.Fatalf("%s: in place, row %d = %v, want %v", name, i, inPlace.RowView(i), want.RowView(i))
		}
	}
}

func checkSigmoid32(t *testing.T, name string, pool *parallel.Pool, lvl Level, src, want *tensor.Matrix32) {
	t.Helper()
	const pad = 1234.5
	for _, stride := range []int{src.Cols, src.Cols + 1} {
		dst := &tensor.Matrix32{Rows: src.Rows, Cols: src.Cols, Stride: stride, Data: make([]float32, src.Rows*stride)}
		for i := range dst.Data {
			dst.Data[i] = pad
		}
		Sigmoid(pool, lvl, dst, src)
		for i := range src.Rows {
			if !bitsEqual(dst.RowView(i), want.RowView(i)) {
				t.Fatalf("%s: f32 dst stride %d, row %d = %v, want %v (src %v)", name, stride, i, dst.RowView(i), want.RowView(i), src.RowView(i))
			}
			if stride > src.Cols && dst.Data[i*stride+src.Cols] != pad {
				t.Fatalf("%s: f32 row %d wrote past its end", name, i)
			}
		}
	}
	inPlace := src.Clone()
	Sigmoid(pool, lvl, inPlace, inPlace)
	for i := range src.Rows {
		if !bitsEqual(inPlace.RowView(i), want.RowView(i)) {
			t.Fatalf("%s: f32 in place, row %d = %v, want %v", name, i, inPlace.RowView(i), want.RowView(i))
		}
	}
}

// FuzzSigmoidPaths reads any byte string as little-endian float64s (and as
// float32s) and holds the dispatched Sigmoid at both precisions at a vectorized
// level to the scalar loop over Exp, bit for bit.
func FuzzSigmoidPaths(f *testing.F) {
	seed := make([]byte, 0, 8*len(sigmoidHostile)+8*9)
	for _, v := range append([]float64{0.5, -3, 17, 707.99, -1e-310, 0, 2, -2, 40}, sigmoidHostile...) {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		src := tensor.NewMatrix(1, n)
		for j := range n {
			src.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
		}
		dst := tensor.NewMatrix(1, n)
		Sigmoid(nil, Blocked, dst, src)
		for j, v := range src.Data {
			if want := sigmoid(v); math.Float64bits(dst.Data[j]) != math.Float64bits(want) {
				t.Fatalf("sigmoid(%v [%#x]) = %#x, want %#x", v, math.Float64bits(v), math.Float64bits(dst.Data[j]), math.Float64bits(want))
			}
		}
		n32 := len(data) / 4
		src32 := tensor.NewMatrix32(1, n32)
		for j := range n32 {
			src32.Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*j:]))
		}
		dst32 := tensor.NewMatrix32(1, n32)
		Sigmoid(nil, Blocked, dst32, src32)
		for j, v := range src32.Data {
			if want := sigmoidOf(v); math.Float32bits(dst32.Data[j]) != math.Float32bits(want) {
				t.Fatalf("sigmoid32(%v [%#x]) = %#x, want %#x", v, math.Float32bits(v), math.Float32bits(dst32.Data[j]), math.Float32bits(want))
			}
		}
	})
}
