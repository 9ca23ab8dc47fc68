package kernels

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"phideep/internal/metrics"
	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// convCase is one conv geometry exercised by the oracle suites: square and
// ragged inputs, multi-channel, strided, padded and unpadded.
var convCases = []ConvShape{
	{C: 1, H: 8, W: 8, F: 3, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{C: 1, H: 12, W: 12, F: 5, KH: 5, KW: 5, Stride: 1, Pad: 2},
	{C: 3, H: 9, W: 7, F: 4, KH: 3, KW: 3, Stride: 2, Pad: 1},
	{C: 2, H: 10, W: 10, F: 6, KH: 3, KW: 5, Stride: 1, Pad: 0},
	{C: 4, H: 6, W: 6, F: 8, KH: 1, KW: 1, Stride: 1, Pad: 0},
}

// naiveConvForward runs the direct (un-lowered) convolution of one NHWC
// image: y[(oy·oW+ox)·F+f] = b[f] + Σ_taps x·w, taps in (ky, kx, c) order.
func naiveConvForward(s ConvShape, x []float64, w *tensor.Matrix, b []float64, y []float64) {
	oh, ow := s.OutH(), s.OutW()
	o := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for f := 0; f < s.F; f++ {
				acc := 0.0
				for ky := 0; ky < s.KH; ky++ {
					iy := oy*s.Stride - s.Pad + ky
					if iy < 0 || iy >= s.H {
						continue
					}
					for kx := 0; kx < s.KW; kx++ {
						ix := ox*s.Stride - s.Pad + kx
						if ix < 0 || ix >= s.W {
							continue
						}
						for c := 0; c < s.C; c++ {
							acc += x[(iy*s.W+ix)*s.C+c] * w.At((ky*s.KW+kx)*s.C+c, f)
						}
					}
				}
				y[o] = acc + b[f]
				o++
			}
		}
	}
}

// naiveConvGrads computes the direct weight, bias and input gradients of
// one image given the output gradient dy ((oH·oW)·F flat).
func naiveConvGrads(s ConvShape, x, dy []float64, w, dw *tensor.Matrix, db, dx []float64) {
	oh, ow := s.OutH(), s.OutW()
	o := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for f := 0; f < s.F; f++ {
				g := dy[o]
				o++
				db[f] += g
				for ky := 0; ky < s.KH; ky++ {
					iy := oy*s.Stride - s.Pad + ky
					if iy < 0 || iy >= s.H {
						continue
					}
					for kx := 0; kx < s.KW; kx++ {
						ix := ox*s.Stride - s.Pad + kx
						if ix < 0 || ix >= s.W {
							continue
						}
						for c := 0; c < s.C; c++ {
							wi := (ky*s.KW+kx)*s.C + c
							xi := (iy*s.W+ix)*s.C + c
							dw.Set(wi, f, dw.At(wi, f)+x[xi]*g)
							dx[xi] += w.At(wi, f) * g
						}
					}
				}
			}
		}
	}
}

func maxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// TestIm2colGemmMatchesDirectConv checks the lowered forward — Im2col then
// Gemm then bias — against the naive direct convolution at every kernel
// level, for every geometry.
func TestIm2colGemmMatchesDirectConv(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	const batch = 3
	for _, s := range convCases {
		r := rng.New(0xc0f_fee)
		x := tensor.NewMatrix(batch, s.InDim())
		x.Randomize(r, -1, 1)
		w := tensor.NewMatrix(s.ColK(), s.F)
		w.Randomize(r, -0.5, 0.5)
		b := tensor.NewVector(s.F).Randomize(r, -0.1, 0.1)

		want := tensor.NewMatrix(batch, s.OutDim())
		for i := 0; i < batch; i++ {
			naiveConvForward(s, x.RowView(i), w, b, want.RowView(i))
		}

		oHW := s.OutH() * s.OutW()
		for _, lvl := range Levels {
			cols := tensor.NewMatrix(batch*oHW, s.ColK())
			out := tensor.NewMatrix(batch*oHW, s.F)
			Im2col(pool, lvl, s, batch, x, cols)
			Gemm(pool, lvl, false, false, 1, cols, w, 0, out)
			AddBiasRow(pool, lvl, out, b)
			if d := maxAbsDiff(out.Data, want.Data); d > 1e-12 {
				t.Errorf("shape %+v level %v: lowered forward deviates from direct conv by %g", s, lvl, d)
			}
		}
	}
}

// TestIm2colGemmBackwardMatchesDirectConv checks the lowered backward —
// dW = colsᵀ·dY, db = ConvBiasGrad(dY), dX = Col2im(dY·Wᵀ) — against
// direct-loop gradients at every kernel level.
func TestIm2colGemmBackwardMatchesDirectConv(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	const batch = 3
	for _, s := range convCases {
		r := rng.New(0xbad_5eed)
		x := tensor.NewMatrix(batch, s.InDim())
		x.Randomize(r, -1, 1)
		w := tensor.NewMatrix(s.ColK(), s.F)
		w.Randomize(r, -0.5, 0.5)
		oHW := s.OutH() * s.OutW()
		dy := tensor.NewMatrix(batch*oHW, s.F)
		dy.Randomize(r, -1, 1)

		wantDW := tensor.NewMatrix(s.ColK(), s.F)
		wantDB := tensor.NewVector(s.F)
		wantDX := tensor.NewMatrix(batch, s.InDim())
		for i := 0; i < batch; i++ {
			naiveConvGrads(s, x.RowView(i), dy.Data[i*oHW*s.F:(i+1)*oHW*s.F], w, wantDW, wantDB, wantDX.RowView(i))
		}

		for _, lvl := range Levels {
			cols := tensor.NewMatrix(batch*oHW, s.ColK())
			Im2col(pool, lvl, s, batch, x, cols)
			dw := tensor.NewMatrix(s.ColK(), s.F)
			Gemm(pool, lvl, true, false, 1, cols, dy, 0, dw)
			db := tensor.NewMatrix(1, s.F)
			ConvBiasGrad(pool, lvl, dy, db)
			dcols := tensor.NewMatrix(batch*oHW, s.ColK())
			Gemm(pool, lvl, false, true, 1, dy, w, 0, dcols)
			dx := tensor.NewMatrix(batch, s.InDim())
			Col2im(pool, lvl, s, batch, dcols, dx)

			if d := maxAbsDiff(dw.Data, wantDW.Data); d > 1e-11 {
				t.Errorf("shape %+v level %v: dW deviates by %g", s, lvl, d)
			}
			if d := maxAbsDiff(db.RowView(0), wantDB); d > 1e-11 {
				t.Errorf("shape %+v level %v: db deviates by %g", s, lvl, d)
			}
			if d := maxAbsDiff(dx.Data, wantDX.Data); d > 1e-11 {
				t.Errorf("shape %+v level %v: dX deviates by %g", s, lvl, d)
			}
		}
	}
}

// TestCol2imIsAdjointOfIm2col checks the defining adjoint identity
// <Im2col(x), y> = <x, Col2im(y)> — the property that makes Col2im the
// correct backward of the lowering — exactly, on integer-valued operands
// where neither side rounds, on both branches of the serial cutoff.
func TestCol2imIsAdjointOfIm2col(t *testing.T) {
	const batch = 2
	for _, s := range convCases {
		r := rng.New(42)
		oHW := s.OutH() * s.OutW()
		x := intValued(r, tensor.NewMatrix(batch, s.InDim()))
		y := intValued(r, tensor.NewMatrix(batch*oHW, s.ColK()))
		forRegionBranches(func(name string, pool *parallel.Pool) {
			cols := tensor.NewMatrix(batch*oHW, s.ColK())
			Im2col(pool, ParallelBlocked, s, batch, x, cols)
			back := tensor.NewMatrix(batch, s.InDim())
			Col2im(pool, ParallelBlocked, s, batch, y, back)
			lhs, rhs := 0.0, 0.0
			for i := range cols.Data {
				lhs += cols.Data[i] * y.Data[i]
			}
			for i := range x.Data {
				rhs += x.Data[i] * back.Data[i]
			}
			if lhs != rhs {
				t.Errorf("shape %+v %s: <Im2col(x),y> = %v but <x,Col2im(y)> = %v", s, name, lhs, rhs)
			}
		})
	}
}

// intValued fills m with integers in [-3, 3], so sums of products of two
// such matrices are exact in float64 and windows hold ties.
func intValued(r *rng.RNG, m *tensor.Matrix) *tensor.Matrix {
	for i := range m.Data {
		m.Data[i] = float64(r.Intn(7) - 3)
	}
	return m
}

// forRegionBranches runs f on pools of 1, 2 and 5 workers, and on the
// larger pools once with every region inline and once with every region
// forked.
func forRegionBranches(f func(name string, pool *parallel.Pool)) {
	for _, workers := range []int{1, 2, 5} {
		pool := parallel.NewPool(workers)
		for _, mode := range []regionMode{forceInline, forceFork} {
			withRegions(mode, func() { f(fmt.Sprintf("workers=%d mode=%d", workers, mode), pool) })
			if workers == 1 {
				break
			}
		}
		pool.Close()
	}
}

// TestMaxPoolMatchesNaive checks pooled maxima and argmax routing against
// direct window scans, then checks that the backward scatter adds each
// output gradient to exactly the forward argmax, bit for bit. The inputs
// are integer-valued, so windows hold ties and the argmax must be the
// first maximum. It runs at every level and on both branches of the
// serial cutoff.
func TestMaxPoolMatchesNaive(t *testing.T) {
	shapes := []PoolShape{
		{C: 1, H: 8, W: 8, Size: 2, Stride: 2},
		{C: 3, H: 12, W: 8, Size: 2, Stride: 2},
		{C: 2, H: 9, W: 9, Size: 3, Stride: 3},
		{C: 2, H: 7, W: 7, Size: 3, Stride: 2}, // overlapping windows
	}
	const batch = 3
	for _, s := range shapes {
		r := rng.New(7)
		x := intValued(r, tensor.NewMatrix(batch, s.InDim()))
		dy := tensor.NewMatrix(batch, s.OutDim())
		dy.Randomize(r, -1, 1)

		forRegionBranches(func(name string, pool *parallel.Pool) {
			for _, lvl := range Levels {
				y := tensor.NewMatrix(batch, s.OutDim())
				arg := tensor.NewMatrix(batch, s.OutDim())
				MaxPool(pool, lvl, s, batch, x, y, arg)
				dx := tensor.NewMatrix(batch, s.InDim())
				MaxPoolBackward(pool, lvl, s, batch, dy, arg, dx)

				wantDX := tensor.NewMatrix(batch, s.InDim())
				oh, ow := s.OutH(), s.OutW()
				for img := 0; img < batch; img++ {
					xr := x.RowView(img)
					o := 0
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							for c := 0; c < s.C; c++ {
								bi := (oy*s.Stride*s.W + ox*s.Stride) * s.C
								best, bestIdx := xr[bi+c], bi+c
								for ky := 0; ky < s.Size; ky++ {
									for kx := 0; kx < s.Size; kx++ {
										idx := ((oy*s.Stride+ky)*s.W + ox*s.Stride + kx) * s.C
										if v := xr[idx+c]; v > best {
											best, bestIdx = v, idx+c
										}
									}
								}
								if got := y.RowView(img)[o]; got != best {
									t.Fatalf("shape %+v level %v %s img %d out %d: max %g, want %g", s, lvl, name, img, o, got, best)
								}
								if got := int(arg.RowView(img)[o]); got != bestIdx {
									t.Fatalf("shape %+v level %v %s img %d out %d: argmax %d, want %d", s, lvl, name, img, o, got, bestIdx)
								}
								wantDX.RowView(img)[bestIdx] += dy.RowView(img)[o]
								o++
							}
						}
					}
				}
				if !slices.Equal(bitsOf(dx.Data), bitsOf(wantDX.Data)) {
					t.Errorf("shape %+v level %v %s: pool backward does not route dy to the argmax bitwise", s, lvl, name)
				}
			}
		})
	}
}

// TestConvKernelsDeterministicAcrossWorkers checks that every conv kernel
// is bit-identical for worker counts 1, 2, 3 and 7 at the parallel levels —
// the property the data-parallel image split and the filter-block bias
// reduction are designed around.
func TestConvKernelsDeterministicAcrossWorkers(t *testing.T) {
	s := ConvShape{C: 3, H: 11, W: 9, F: 7, KH: 3, KW: 3, Stride: 1, Pad: 1}
	ps := PoolShape{C: 7, H: 11, W: 9, Size: 2, Stride: 2}
	// Pool geometry must tile: 11 does not divide by 2, so trim via valid
	// extents (10 and 8).
	ps.H, ps.W = 10, 8
	const batch = 5
	r := rng.New(99)
	x := tensor.NewMatrix(batch, s.InDim())
	x.Randomize(r, -1, 1)
	px := tensor.NewMatrix(batch, ps.InDim())
	px.Randomize(r, -1, 1)
	pdy := tensor.NewMatrix(batch, ps.OutDim())
	pdy.Randomize(r, -1, 1)
	oHW := s.OutH() * s.OutW()
	dy := tensor.NewMatrix(batch*oHW, s.F)
	dy.Randomize(r, -1, 1)
	dcols := tensor.NewMatrix(batch*oHW, s.ColK())
	dcols.Randomize(r, -1, 1)

	type snapshot struct {
		cols, dx, y, arg, pdx, db []float64
	}
	run := func(workers int, lvl Level) snapshot {
		pool := parallel.NewPool(workers)
		defer pool.Close()
		cols := tensor.NewMatrix(batch*oHW, s.ColK())
		Im2col(pool, lvl, s, batch, x, cols)
		dx := tensor.NewMatrix(batch, s.InDim())
		Col2im(pool, lvl, s, batch, dcols, dx)
		y := tensor.NewMatrix(batch, ps.OutDim())
		arg := tensor.NewMatrix(batch, ps.OutDim())
		MaxPool(pool, lvl, ps, batch, px, y, arg)
		pdx := tensor.NewMatrix(batch, ps.InDim())
		MaxPoolBackward(pool, lvl, ps, batch, pdy, arg, pdx)
		db := tensor.NewMatrix(1, s.F)
		ConvBiasGrad(pool, lvl, dy, db)
		return snapshot{cols.Data, dx.Data, y.Data, arg.Data, pdx.Data, db.Data}
	}

	for _, lvl := range []Level{Parallel, ParallelBlocked} {
		ref := run(1, lvl)
		for _, workers := range []int{2, 3, 7} {
			got := run(workers, lvl)
			check := func(name string, a, b []float64) {
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("level %v workers %d: %s[%d] = %g, want %g (not bit-deterministic)", lvl, workers, name, i, b[i], a[i])
					}
				}
			}
			check("cols", ref.cols, got.cols)
			check("dx", ref.dx, got.dx)
			check("pool.y", ref.y, got.y)
			check("pool.arg", ref.arg, got.arg)
			check("pool.dx", ref.pdx, got.pdx)
			check("biasgrad", ref.db, got.db)
		}
	}
}

// TestConvKernels32MatchF64 checks the float32 forward gather and pool
// against the float64 kernels on rounded inputs: the gather is a copy and
// rounding is monotone, so both must agree exactly.
func TestConvKernels32MatchF64(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	s := ConvShape{C: 2, H: 10, W: 8, F: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	ps := PoolShape{C: 5, H: 10, W: 8, Size: 2, Stride: 2}
	const batch = 4
	r := rng.New(1234)
	x := tensor.NewMatrix(batch, s.InDim())
	x.Randomize(r, -1, 1)
	px := tensor.NewMatrix(batch, ps.InDim())
	px.Randomize(r, -1, 1)
	x32 := x.To32()
	px32 := px.To32()

	oHW := s.OutH() * s.OutW()
	for _, lvl := range Levels {
		cols := tensor.NewMatrix(batch*oHW, s.ColK())
		Im2col(pool, lvl, s, batch, x, cols)
		cols32 := tensor.NewMatrix32(batch*oHW, s.ColK())
		Im2col(pool, lvl, s, batch, x32, cols32)
		for i := range cols32.Data {
			if cols32.Data[i] != float32(cols.Data[i]) {
				t.Fatalf("level %v: im2col32[%d] = %g, want %g", lvl, i, cols32.Data[i], float32(cols.Data[i]))
			}
		}

		y := tensor.NewMatrix(batch, ps.OutDim())
		arg := tensor.NewMatrix(batch, ps.OutDim())
		MaxPool(pool, lvl, ps, batch, px, y, arg)
		y32 := tensor.NewMatrix32(batch, ps.OutDim())
		MaxPool(pool, lvl, ps, batch, px32, y32, nil)
		for i := range y32.Data {
			if y32.Data[i] != float32(y.Data[i]) {
				t.Fatalf("level %v: maxpool32[%d] = %g, want %g", lvl, i, y32.Data[i], float32(y.Data[i]))
			}
		}
	}
}

// TestConvKernels32ObserveSeconds: with metrics on, one float32 Im2col and
// one float32 MaxPool each add exactly one observation to the wall-time
// histogram they share with the float64 calls.
func TestConvKernels32ObserveSeconds(t *testing.T) {
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	s := ConvShape{C: 2, H: 6, W: 6, F: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	ps := PoolShape{C: 2, H: 6, W: 6, Size: 2, Stride: 2}
	x := tensor.NewMatrix32(1, s.InDim())
	cols := tensor.NewMatrix32(s.OutH()*s.OutW(), s.ColK())
	y := tensor.NewMatrix32(1, ps.OutDim())
	im2col, pool := mConvIm2colSeconds.Count(), mConvPoolSeconds.Count()
	Im2col(nil, Naive, s, 1, x, cols)
	MaxPool(nil, Naive, ps, 1, x, y, nil)
	if d := mConvIm2colSeconds.Count() - im2col; d != 1 {
		t.Errorf("Im2col added %d observations to kernels.conv.im2col.seconds, want 1", d)
	}
	if d := mConvPoolSeconds.Count() - pool; d != 1 {
		t.Errorf("MaxPool added %d observations to kernels.conv.pool.seconds, want 1", d)
	}
}

// TestConvShapeValidate exercises the geometry validators.
func TestConvShapeValidate(t *testing.T) {
	good := ConvShape{C: 1, H: 8, W: 8, F: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	bad := []ConvShape{
		{C: 0, H: 8, W: 8, F: 2, KH: 3, KW: 3, Stride: 1},
		{C: 1, H: 8, W: 8, F: 2, KH: 0, KW: 3, Stride: 1},
		{C: 1, H: 8, W: 8, F: 2, KH: 3, KW: 3, Stride: 0},
		{C: 1, H: 2, W: 8, F: 2, KH: 6, KW: 3, Stride: 1, Pad: 1},
		{C: 1, H: 8, W: 8, F: 2, KH: 3, KW: 3, Stride: 1, Pad: 3},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad conv shape %d (%+v) accepted", i, s)
		}
	}
	if err := (PoolShape{C: 1, H: 8, W: 8, Size: 2, Stride: 2}).Validate(); err != nil {
		t.Fatalf("valid pool shape rejected: %v", err)
	}
	badPool := []PoolShape{
		{C: 1, H: 9, W: 8, Size: 2, Stride: 2}, // does not tile
		{C: 1, H: 8, W: 8, Size: 0, Stride: 2},
		{C: 0, H: 8, W: 8, Size: 2, Stride: 2},
	}
	for i, s := range badPool {
		if err := s.Validate(); err == nil {
			t.Errorf("bad pool shape %d (%+v) accepted", i, s)
		}
	}
}
