package kernels

import (
	"sync"

	"phideep/internal/metrics"
	"phideep/internal/tensor"
)

// Cache-blocking parameters of the packed GEMM path. op(B) panels of
// kcBlock×ncBlock are packed once per GEMM and shared read-only by all
// workers; each worker packs mr-row slivers of op(A) into an L1-resident
// scratch it reuses across the whole n-extent of the panel. mr and nr are
// the register-tile extents of the micro-kernel; changing any of these
// constants affects speed only, never results.
const (
	mr      = 4   // micro-kernel rows of C held in accumulators
	nr      = 8   // micro-kernel cols of C held in accumulators
	kcBlock = 256 // k-extent of a packed panel (A sliver: mr×kc = 8 KiB)
	ncBlock = 512 // n-extent of a packed B panel (kc×nc = 1 MiB ceiling)
)

// arena is a reusable float64 scratch buffer. Arenas are pooled so packing
// allocates nothing in steady state; the pooled object is a pointer, so
// Get/Put do not allocate either.
type arena struct {
	buf []float64
}

// ensure returns a slice of exactly n elements backed by the arena,
// growing the backing store if needed. Contents are unspecified. When
// metrics are enabled each call is classified as a pool reuse (capacity
// sufficed) or a grow (reallocation) — the observable form of the
// steady-state zero-alloc claim.
func (ar *arena) ensure(n int) []float64 {
	if cap(ar.buf) < n {
		if metrics.Enabled() {
			mArenaGrow.Inc()
		}
		ar.buf = make([]float64, n)
	} else if metrics.Enabled() {
		mArenaReuse.Inc()
	}
	return ar.buf[:n]
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// packB packs op(B)[pc:pc+kc, jc:jc+nc] into bp as a sequence of nr-wide
// micro-panels, each laid out k-major: element (l, jj) of micro-panel jp
// lands at bp[jp*kc*nr + l*nr + jj]. Ragged right edges are zero-padded to
// nr so the micro-kernel always reads full lanes. b may be strided; the
// packed panel is always unit-stride.
func packB(bp []float64, b *tensor.Matrix, transB bool, pc, kc, jc, nc int) {
	for jp := 0; jp*nr < nc; jp++ {
		j0 := jc + jp*nr
		w := nr
		if rem := jc + nc - j0; rem < w {
			w = rem
		}
		panel := bp[jp*kc*nr : (jp+1)*kc*nr]
		if transB {
			// op(B)[l][j] = B[j][l]: read row j of B along l (unit
			// stride), scatter into the nr-strided lane jj.
			for jj := 0; jj < w; jj++ {
				brow := b.RowView(j0 + jj)[pc : pc+kc]
				for l, v := range brow {
					panel[l*nr+jj] = v
				}
			}
		} else if w == nr {
			// Full-width panel: one fixed-size array assignment per k
			// step instead of a RowView and a memmove call.
			for l := 0; l < kc; l++ {
				*(*[nr]float64)(panel[l*nr:]) = *(*[nr]float64)(b.Data[(pc+l)*b.Stride+j0:])
			}
		} else {
			for l := 0; l < kc; l++ {
				brow := b.RowView(pc + l)[j0 : j0+w]
				dst := panel[l*nr : l*nr+w]
				copy(dst, brow)
			}
		}
		if w < nr {
			for l := 0; l < kc; l++ {
				lane := panel[l*nr : (l+1)*nr]
				for jj := w; jj < nr; jj++ {
					lane[jj] = 0
				}
			}
		}
	}
}

// packA packs the mr-row sliver op(A)[i0:i0+h, pc:pc+kc] into ap, k-major:
// element (ii, l) lands at ap[l*mr+ii]. Rows past h are zero-padded so edge
// tiles run the same full micro-kernel.
func packA(ap []float64, a *tensor.Matrix, transA bool, i0, h, pc, kc int) {
	if transA {
		// op(A)[i][l] = A[l][i]: row pc+l of A holds lane l for all ii.
		for l := 0; l < kc; l++ {
			arow := a.RowView(pc + l)[i0 : i0+h]
			lane := ap[l*mr : l*mr+mr]
			for ii, v := range arow {
				lane[ii] = v
			}
			for ii := h; ii < mr; ii++ {
				lane[ii] = 0
			}
		}
		return
	}
	for ii := 0; ii < h; ii++ {
		arow := a.RowView(i0 + ii)[pc : pc+kc]
		for l, v := range arow {
			ap[l*mr+ii] = v
		}
	}
	for ii := h; ii < mr; ii++ {
		for l := 0; l < kc; l++ {
			ap[l*mr+ii] = 0
		}
	}
}

// kernelPath names the micro-kernel family the blocked GEMM levels run.
type kernelPath uint8

const (
	// pathGo is the pure-Go register tiles: non-amd64, -tags noasm, or a
	// CPU without AVX2+FMA.
	pathGo kernelPath = iota
	// pathAVX2 is the YMM tiles, dgemmKernel4x8 and sgemmKernel8x16.
	pathAVX2
	// pathAVX512 is the ZMM tiles, dgemmKernel4x24 and sgemmKernel8x32,
	// with the AVX2 tiles serving the panels left over past a multiple of
	// three (f64) or two (f32).
	pathAVX512
)

// activePath is chosen once at package init from CPUID. The paths agree
// bitwise between avx2 and avx512: both run every C element's FMA chain
// from zero over the same k-panel, then the same Go fold.
var activePath = detectKernelPath()

// AsmKernels reports whether the blocked GEMM levels run the assembly
// micro-kernels (avx2 or avx512, which agree bitwise) in this build on this
// CPU; false means the pure-Go tiles, whose non-fused multiply-adds round
// differently.
func AsmKernels() bool { return activePath != pathGo }

// kernelTile computes the full mr×nr register tile
//
//	out[ii*nr+jj] = Σ_l ap[l*mr+ii] · bp[l*nr+jj]
//
// over one packed A sliver and one packed B micro-panel (both zero-padded
// to full lanes). On amd64 with AVX2+FMA the tile runs in the assembly
// micro-kernel: the 32 accumulators live in eight YMM registers with
// independent dependency chains, each k step issues two packed loads of B,
// four broadcasts of A and eight fused multiply-adds, and both operands
// stream unit-stride from the packed buffers. Everywhere else a pure-Go
// kernel computes the same tile as four 4×2 register sub-tiles (eight
// scalar accumulators + six operand temporaries fit amd64's sixteen FP
// registers, so the fallback loop also runs spill-free).
func kernelTile(kc int, ap, bp []float64, out *[mr * nr]float64) {
	if activePath != pathGo {
		dgemmKernel4x8(kc, &ap[0], &bp[0], &out[0])
		return
	}
	kernelTileGo(kc, ap, 1, mr, bp, out)
}

// kernelTileStrided is kernelTile reading the mr×kc sliver of op(A) where
// it lies instead of from a packed buffer: element (ii, l) is a[ii*rs+l*cs]
// (rs, cs > 0, in elements). Each C element runs the same FMA chain as in
// kernelTile, so the tile is bitwise what packA followed by kernelTile
// computes. The narrow GEMM path uses it for full row tiles, where a packed
// sliver would feed only one or two micro-panels.
func kernelTileStrided(kc int, a []float64, rs, cs int, bp []float64, out *[mr * nr]float64) {
	_ = a[(mr-1)*rs+(kc-1)*cs]
	_ = bp[:kc*nr]
	if activePath != pathGo {
		dgemmKernel4x8s(kc, &a[0], rs*8, cs*8, &bp[0], &out[0])
		return
	}
	kernelTileGo(kc, a, rs, cs, bp, out)
}

// kernelTileGo is the pure-Go tile over op(A) element (ii, l) at
// a[ii*rs+l*cs]: strides (1, mr) for a packed sliver, the matrix's own for
// an in-place read.
func kernelTileGo(kc int, a []float64, rs, cs int, bp []float64, out *[mr * nr]float64) {
	_ = a[(mr-1)*rs+(kc-1)*cs]
	_ = bp[:kc*nr]
	for half := 0; half < nr/2; half++ {
		var s00, s01 float64
		var s10, s11 float64
		var s20, s21 float64
		var s30, s31 float64
		aoff, boff := 0, half*2
		for l := 0; l < kc; l++ {
			a0, a1, a2, a3 := a[aoff], a[aoff+rs], a[aoff+2*rs], a[aoff+3*rs]
			b0, b1 := bp[boff], bp[boff+1]
			s00 += a0 * b0
			s01 += a0 * b1
			s10 += a1 * b0
			s11 += a1 * b1
			s20 += a2 * b0
			s21 += a2 * b1
			s30 += a3 * b0
			s31 += a3 * b1
			aoff += cs
			boff += nr
		}
		j := half * 2
		out[0*nr+j], out[0*nr+j+1] = s00, s01
		out[1*nr+j], out[1*nr+j+1] = s10, s11
		out[2*nr+j], out[2*nr+j+1] = s20, s21
		out[3*nr+j], out[3*nr+j+1] = s30, s31
	}
}

// foldTile folds the computed register tile into C:
//
//	C = beta·C + alpha·acc    (beta == 1 for every k-panel after the first)
//
// h×w (≤ mr×nr) is the valid extent of the tile in C; the zero-padded
// lanes outside it are discarded.
func foldTile(out *[mr * nr]float64, alpha, beta float64, c *tensor.Matrix, i0, j0, h, w int) {
	for ii := 0; ii < h; ii++ {
		crow := c.Data[(i0+ii)*c.Stride+j0:][:w]
		acc := out[ii*nr : ii*nr+w]
		switch beta {
		case 1:
			for jj, v := range acc {
				crow[jj] += alpha * v
			}
		case 0:
			// Assign rather than blend so stale C contents (even NaN)
			// are discarded, matching BLAS beta==0 semantics.
			for jj, v := range acc {
				crow[jj] = alpha * v
			}
		default:
			for jj, v := range acc {
				crow[jj] = beta*crow[jj] + alpha*v
			}
		}
	}
}
