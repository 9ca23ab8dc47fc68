package kernels

import (
	"fmt"
	"time"

	"phideep/internal/metrics"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Convolution lowering à la CHAOS (Viebke et al., arXiv 1702.07908): conv
// layers are expressed as im2col gathers feeding the packed GEMM, so the
// one micro-kernel this repo already tunes carries the new workload family.
// Thread parallelization follows the same split as CHAOS: the gather and
// pooling kernels are data-parallel over the images of a batch (each worker
// owns a contiguous image range via a parallel.Ranger, writing disjoint
// output rows, so results are bit-identical for every worker count), while
// the filter dimension is walked model-parallel — by the GEMM's
// filter-column blocking inside each worker's row range, and explicitly by
// ConvBiasGrad's filter-block Ranger.

// ConvShape describes one convolution layer's geometry. Images are stored
// one per row in NHWC order: element (y, x, c) of an image lives at flat
// index (y·W + x)·C + c. Filters are stored as a ColK()×F matrix whose row
// (ky·KW + kx)·C + c holds the weights of input tap (ky, kx, c) — exactly
// the column order Im2col produces, so conv = cols · W.
type ConvShape struct {
	C, H, W int // input channels and spatial extent
	F       int // output filters (output channels)
	KH, KW  int // kernel extent
	Stride  int
	Pad     int // zero padding on every spatial edge
}

// Validate checks the geometry yields at least one output position.
func (s ConvShape) Validate() error {
	if s.C <= 0 || s.H <= 0 || s.W <= 0 || s.F <= 0 {
		return fmt.Errorf("kernels: conv shape %+v: non-positive extent", s)
	}
	if s.KH <= 0 || s.KW <= 0 || s.Stride <= 0 || s.Pad < 0 {
		return fmt.Errorf("kernels: conv shape %+v: bad kernel/stride/pad", s)
	}
	if s.KH > s.H+2*s.Pad || s.KW > s.W+2*s.Pad {
		return fmt.Errorf("kernels: conv shape %+v: kernel larger than padded input", s)
	}
	if s.Pad >= s.KH || s.Pad >= s.KW {
		return fmt.Errorf("kernels: conv shape %+v: padding swallows whole kernel rows", s)
	}
	return nil
}

// OutH returns the output height.
func (s ConvShape) OutH() int { return (s.H+2*s.Pad-s.KH)/s.Stride + 1 }

// OutW returns the output width.
func (s ConvShape) OutW() int { return (s.W+2*s.Pad-s.KW)/s.Stride + 1 }

// InDim returns the per-image input dimensionality H·W·C.
func (s ConvShape) InDim() int { return s.H * s.W * s.C }

// OutDim returns the per-image output dimensionality OutH·OutW·F.
func (s ConvShape) OutDim() int { return s.OutH() * s.OutW() * s.F }

// ColK returns the im2col row width KH·KW·C — the K dimension of the
// lowered GEMM.
func (s ConvShape) ColK() int { return s.KH * s.KW * s.C }

// PoolShape describes a max-pooling layer over NHWC images: a Size×Size
// window sliding by Stride, per channel.
type PoolShape struct {
	C, H, W int
	Size    int
	Stride  int
}

// Validate checks that windows tile the input exactly (no partial windows).
func (s PoolShape) Validate() error {
	if s.C <= 0 || s.H <= 0 || s.W <= 0 {
		return fmt.Errorf("kernels: pool shape %+v: non-positive extent", s)
	}
	if s.Size <= 0 || s.Stride <= 0 || s.Size > s.H || s.Size > s.W {
		return fmt.Errorf("kernels: pool shape %+v: bad window", s)
	}
	if (s.H-s.Size)%s.Stride != 0 || (s.W-s.Size)%s.Stride != 0 {
		return fmt.Errorf("kernels: pool shape %+v: window does not tile input", s)
	}
	return nil
}

// OutH returns the output height.
func (s PoolShape) OutH() int { return (s.H-s.Size)/s.Stride + 1 }

// OutW returns the output width.
func (s PoolShape) OutW() int { return (s.W-s.Size)/s.Stride + 1 }

// InDim returns the per-image input dimensionality H·W·C.
func (s PoolShape) InDim() int { return s.H * s.W * s.C }

// OutDim returns the per-image output dimensionality OutH·OutW·C.
func (s PoolShape) OutDim() int { return s.OutH() * s.OutW() * s.C }

// flat asserts m is densely packed and returns its storage as one flat
// slice of exactly want elements. Conv kernels address images through flat
// NHWC offsets, so a (batch·oHW)×F GEMM output doubles as a batch×(oHW·F)
// pooling input with no reshape or copy — the layout identity im2col
// lowering is built on.
func flat[T tensor.Float](op string, m *tensor.Dense[T], want int) []T {
	if m.Stride != m.Cols || len(m.Data) < m.Rows*m.Cols {
		panic(fmt.Sprintf("kernels: %s needs a contiguous matrix, got %dx%d stride %d", op, m.Rows, m.Cols, m.Stride))
	}
	if m.Rows*m.Cols != want {
		panic(fmt.Sprintf("kernels: %s size mismatch: %dx%d = %d elements, want %d", op, m.Rows, m.Cols, m.Rows*m.Cols, want))
	}
	return m.Data[:want]
}

// forImages partitions batch images across the pool when the level, the
// pool and the estimated serial cost ns allow, running body.Range over
// disjoint contiguous image ranges. The Ranger form keeps the hot path
// allocation-free (no per-call closure).
func forImages(pool *parallel.Pool, lvl Level, batch int, ns float64, body parallel.Ranger) {
	team(pool, lvl, ns).ForRanger(batch, parallel.Static, 0, body)
}

// Im2col lowers batch NHWC images (x, batch·InDim elements flat) into the
// patch matrix cols ((batch·OutH·OutW)×ColK): output row img·oHW + oy·oW + ox
// holds the receptive field of output position (oy, ox) of image img, taps
// ordered (ky, kx, c), out-of-bounds taps zero-filled. Images are
// data-parallel across workers; each image's rows are written by exactly
// one worker, so the result is bit-identical for every worker count.
func Im2col[T tensor.Float](pool *parallel.Pool, lvl Level, s ConvShape, batch int, x, cols *tensor.Dense[T]) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if batch <= 0 {
		panic(fmt.Sprintf("kernels: Im2col non-positive batch %d", batch))
	}
	var start time.Time
	if metrics.Enabled() {
		start = time.Now()
	}
	r := im2colRanger[T]{
		s: s, batch: batch,
		x:    flat("Im2col", x, batch*s.InDim()),
		cols: cols,
	}
	if cols.Rows != batch*s.OutH()*s.OutW() || cols.Cols != s.ColK() {
		panic(fmt.Sprintf("kernels: Im2col cols %dx%d, want %dx%d", cols.Rows, cols.Cols, batch*s.OutH()*s.OutW(), s.ColK()))
	}
	forImages(pool, lvl, batch, cost(nsIm2col, cols.Rows, cols.Cols), &r)
	if metrics.Enabled() {
		mConvIm2colCalls.Inc()
		mConvIm2colElems.Add(float64(cols.Rows) * float64(cols.Cols))
		mConvIm2colSeconds.Observe(time.Since(start).Seconds())
	}
}

type im2colRanger[T tensor.Float] struct {
	s     ConvShape
	batch int
	x     []T
	cols  *tensor.Dense[T]
}

// Range implements parallel.Ranger over image indices [lo, hi).
func (r *im2colRanger[T]) Range(lo, hi int) {
	s := r.s
	oh, ow := s.OutH(), s.OutW()
	rowC := s.KW * s.C
	for img := lo; img < hi; img++ {
		src := r.x[img*s.InDim() : (img+1)*s.InDim()]
		row := img * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*s.Stride - s.Pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*s.Stride - s.Pad
				dst := r.cols.RowView(row)
				row++
				di := 0
				for ky := 0; ky < s.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= s.H {
						clear(dst[di : di+rowC])
						di += rowC
						continue
					}
					base := iy * s.W * s.C
					// Contiguous fast path: the whole kernel row is in
					// bounds, one copy moves KW·C taps.
					if ix0 >= 0 && ix0+s.KW <= s.W {
						copy(dst[di:di+rowC], src[base+ix0*s.C:])
						di += rowC
						continue
					}
					for kx := 0; kx < s.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= s.W {
							clear(dst[di : di+s.C])
						} else {
							copy(dst[di:di+s.C], src[base+ix*s.C:base+(ix+1)*s.C])
						}
						di += s.C
					}
				}
			}
		}
	}
}

// Col2im is the adjoint of Im2col: it scatters patch-matrix gradients
// dcols ((batch·OutH·OutW)×ColK) back into image gradients dx (batch·InDim
// flat), accumulating where receptive fields overlap. dx is zeroed first.
// Parallel over images with disjoint per-image outputs, so bit-determinism
// across worker counts holds here too.
func Col2im(pool *parallel.Pool, lvl Level, s ConvShape, batch int, dcols, dx *tensor.Matrix) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if batch <= 0 {
		panic(fmt.Sprintf("kernels: Col2im non-positive batch %d", batch))
	}
	r := col2imRanger{
		s: s, batch: batch,
		dx:    flat("Col2im", dx, batch*s.InDim()),
		dcols: dcols,
	}
	if dcols.Rows != batch*s.OutH()*s.OutW() || dcols.Cols != s.ColK() {
		panic(fmt.Sprintf("kernels: Col2im dcols %dx%d, want %dx%d", dcols.Rows, dcols.Cols, batch*s.OutH()*s.OutW(), s.ColK()))
	}
	forImages(pool, lvl, batch, cost(nsCol2im, dcols.Rows, dcols.Cols), &r)
	if metrics.Enabled() {
		mConvCol2imCalls.Inc()
	}
}

type col2imRanger struct {
	s     ConvShape
	batch int
	dx    []float64
	dcols *tensor.Matrix
}

// Range implements parallel.Ranger over image indices [lo, hi).
func (r *col2imRanger) Range(lo, hi int) {
	s := r.s
	oh, ow := s.OutH(), s.OutW()
	for img := lo; img < hi; img++ {
		dst := r.dx[img*s.InDim() : (img+1)*s.InDim()]
		clear(dst)
		row := img * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*s.Stride - s.Pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*s.Stride - s.Pad
				src := r.dcols.RowView(row)
				row++
				si := 0
				for ky := 0; ky < s.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= s.H {
						si += s.KW * s.C
						continue
					}
					base := iy * s.W * s.C
					for kx := 0; kx < s.KW; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= s.W {
							si += s.C
							continue
						}
						di := base + ix*s.C
						for c := 0; c < s.C; c++ {
							dst[di+c] += src[si+c]
						}
						si += s.C
					}
				}
			}
		}
	}
}

// MaxPool computes per-channel window maxima of batch NHWC images: y gets
// the maxima (batch·OutDim flat) and arg the flat per-image input index of
// each winner (stored as float64 so it can live in a device buffer), which
// MaxPoolBackward uses to route gradients. Ties keep the first (lowest
// index) winner, making the argmax — and thus the backward pass —
// deterministic. Data-parallel over images. A nil arg skips the argmax:
// inference replicas never run backward.
func MaxPool[T tensor.Float](pool *parallel.Pool, lvl Level, s PoolShape, batch int, x, y *tensor.Dense[T], arg *tensor.Matrix) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if batch <= 0 {
		panic(fmt.Sprintf("kernels: MaxPool non-positive batch %d", batch))
	}
	var start time.Time
	if metrics.Enabled() {
		start = time.Now()
	}
	r := maxPoolRanger[T]{
		s: s, batch: batch,
		x: flat("MaxPool", x, batch*s.InDim()),
		y: flat("MaxPool", y, batch*s.OutDim()),
	}
	if arg != nil {
		r.arg = flat("MaxPool", arg, batch*s.OutDim())
	}
	forImages(pool, lvl, batch, cost(nsMaxPool, batch, s.InDim()), &r)
	if metrics.Enabled() {
		mConvPoolCalls.Inc()
		mConvPoolElems.Add(float64(batch) * float64(s.OutDim()))
		mConvPoolSeconds.Observe(time.Since(start).Seconds())
	}
}

type maxPoolRanger[T tensor.Float] struct {
	s     PoolShape
	batch int
	x, y  []T
	arg   []float64 // nil: no argmax
}

// Range implements parallel.Ranger over image indices [lo, hi).
func (r *maxPoolRanger[T]) Range(lo, hi int) {
	s := r.s
	oh, ow := s.OutH(), s.OutW()
	for img := lo; img < hi; img++ {
		xr := r.x[img*s.InDim() : (img+1)*s.InDim()]
		ob := img * s.OutDim()
		for oy := 0; oy < oh; oy++ {
			iy0 := oy * s.Stride
			for ox := 0; ox < ow; ox++ {
				ix0 := ox * s.Stride
				for c := 0; c < s.C; c++ {
					bi := (iy0*s.W+ix0)*s.C + c
					best, bestIdx := xr[bi], bi
					for ky := 0; ky < s.Size; ky++ {
						ri := ((iy0+ky)*s.W + ix0) * s.C
						for kx := 0; kx < s.Size; kx++ {
							idx := ri + kx*s.C + c
							if v := xr[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					r.y[ob] = best
					if r.arg != nil {
						r.arg[ob] = float64(bestIdx)
					}
					ob++
				}
			}
		}
	}
}

// MaxPoolBackward scatters output gradients dy back to dx through the
// argmax recorded by MaxPool, accumulating where windows overlap
// (Stride < Size). dx is zeroed first. Data-parallel over images.
func MaxPoolBackward(pool *parallel.Pool, lvl Level, s PoolShape, batch int, dy, arg, dx *tensor.Matrix) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if batch <= 0 {
		panic(fmt.Sprintf("kernels: MaxPoolBackward non-positive batch %d", batch))
	}
	r := maxPoolBackRanger{
		s: s, batch: batch,
		dy:  flat("MaxPoolBackward", dy, batch*s.OutDim()),
		arg: flat("MaxPoolBackward", arg, batch*s.OutDim()),
		dx:  flat("MaxPoolBackward", dx, batch*s.InDim()),
	}
	forImages(pool, lvl, batch, cost(nsMaxPoolBack, batch, s.InDim()), &r)
	if metrics.Enabled() {
		mConvPoolCalls.Inc()
	}
}

type maxPoolBackRanger struct {
	s           PoolShape
	batch       int
	dy, arg, dx []float64
}

// Range implements parallel.Ranger over image indices [lo, hi).
func (r *maxPoolBackRanger) Range(lo, hi int) {
	s := r.s
	for img := lo; img < hi; img++ {
		dst := r.dx[img*s.InDim() : (img+1)*s.InDim()]
		clear(dst)
		ob := img * s.OutDim()
		for o := 0; o < s.OutDim(); o++ {
			dst[int(r.arg[ob+o])] += r.dy[ob+o]
		}
	}
}

// convBiasBlock is the filter-block granularity of ConvBiasGrad: wide
// enough to amortize the row sweep, narrow enough that small filter counts
// still spread across workers.
const convBiasBlock = 8

// ConvBiasGrad reduces the lowered conv gradient dOut ((batch·oHW)×F) to
// the per-filter bias gradient db (1×F): db[f] = Σ_rows dOut[·,f]. This is
// the model-parallel half of the CHAOS split made explicit: filters are
// partitioned into blocks across workers via a Ranger, each worker summing
// its own columns over all rows in row order — so the result is
// bit-identical for every worker count, with no shared partials.
func ConvBiasGrad(pool *parallel.Pool, lvl Level, dOut, db *tensor.Matrix) {
	if db.Rows != 1 || db.Cols != dOut.Cols {
		panic(fmt.Sprintf("kernels: ConvBiasGrad db %dx%d for dOut %dx%d", db.Rows, db.Cols, dOut.Rows, dOut.Cols))
	}
	r := biasGradRanger{dOut: dOut, db: db.RowView(0)}
	blocks := (dOut.Cols + convBiasBlock - 1) / convBiasBlock
	team(pool, lvl, cost(nsColSums, dOut.Rows, dOut.Cols)).ForRanger(blocks, parallel.Static, 0, &r)
	if metrics.Enabled() {
		mConvBiasGradCalls.Inc()
	}
}

type biasGradRanger struct {
	dOut *tensor.Matrix
	db   []float64
}

// Range implements parallel.Ranger over filter blocks [lo, hi).
func (r *biasGradRanger) Range(lo, hi int) {
	jlo := lo * convBiasBlock
	jhi := hi * convBiasBlock
	if jhi > r.dOut.Cols {
		jhi = r.dOut.Cols
	}
	clear(r.db[jlo:jhi])
	for i := 0; i < r.dOut.Rows; i++ {
		row := r.dOut.RowView(i)
		for j := jlo; j < jhi; j++ {
			r.db[j] += row[j]
		}
	}
}
