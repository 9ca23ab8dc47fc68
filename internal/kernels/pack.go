package kernels

import (
	"sync"
	"unsafe"

	"phideep/internal/metrics"
	"phideep/internal/tensor"
)

// Cache-blocking parameters of the packed GEMM path, the same at both
// precisions. op(B) panels of kcBlock×ncBlock are packed once per GEMM and
// shared read-only by all workers; each worker packs mr-row slivers of
// op(A) into an L1-resident scratch it reuses across the whole n-extent of
// the panel. Changing these constants affects speed only, never results.
const (
	kcBlock = 256 // k-extent of a packed panel (A sliver: mr×kc = 8 KiB)
	ncBlock = 512 // n-extent of a packed B panel (kc×nc ≤ 1 MiB)
)

// tileMR and tileNR are the register-tile extents mr×nr of the packed
// micro-kernel at T: an mr-lane column of A fills one 32-byte YMM
// register and an nr-lane row of B two, so the tile is 4×8 at f64 and
// 8×16 at f32. Both fold to constants inside each instantiation.
func tileMR[T tensor.Float]() int { return 32 / int(unsafe.Sizeof(T(0))) }
func tileNR[T tensor.Float]() int { return 64 / int(unsafe.Sizeof(T(0))) }

// narrowN is the widest op(B), in columns, that takes the narrow path: two
// micro-panels. There a packed op(A) sliver would feed only one or two
// tiles, so packing it costs about what the tiles do, and each k-panel's
// fork/join costs more than its work.
func narrowN[T tensor.Float]() int { return 2 * tileNR[T]() }

// precision is one row of the per-precision table: what the kernel stack
// runs differently at float64 and float32 besides the tile extents. The
// loops themselves are written once over T; the assembly is not.
type precision[T tensor.Float] struct {
	tile func(kc int, ap, bp, out *T) // AVX2 mr×nr tile
	// strided is tile reading op(A) in place, strides in bytes; nil where
	// no such kernel exists, and the narrow path then packs op(A).
	strided func(kc int, a *T, rsA, csA int, bp, out *T)
	// wide is the AVX-512 tile over widePanels adjacent B micro-panels.
	wide       func(kc int, ap, bp, out *T)
	widePanels int
	sigmoid    func(dst, src []T) int // AVX2 sigmoid blocks, see sigmoid64
	m          *gemmMetrics
	// arenas pools *arena[T], states *gemmState[T].
	arenas, states sync.Pool
}

var (
	prec64 = &precision[float64]{
		tile: dgemmKernel4x8, strided: dgemmKernel4x8s,
		wide: dgemmKernel4x24, widePanels: 3,
		sigmoid: sigmoid64, m: &gemm64Metrics,
		arenas: sync.Pool{New: func() any { return new(arena[float64]) }},
		states: sync.Pool{New: func() any { return new(gemmState[float64]) }},
	}
	prec32 = &precision[float32]{
		tile: sgemmKernel8x16,
		wide: sgemmKernel8x32, widePanels: 2,
		sigmoid: sigmoid32, m: &gemm32Metrics,
		arenas: sync.Pool{New: func() any { return new(arena[float32]) }},
		states: sync.Pool{New: func() any { return new(gemmState[float32]) }},
	}
)

// prec returns T's row of the table.
func prec[T tensor.Float]() *precision[T] {
	if unsafe.Sizeof(T(0)) == 4 {
		return any(prec32).(*precision[T])
	}
	return any(prec64).(*precision[T])
}

// arena is a reusable scratch buffer. Arenas are pooled so packing
// allocates nothing in steady state; the pooled object is a pointer, so
// Get/Put do not allocate either.
type arena[T tensor.Float] struct {
	buf []T
}

// ensure returns a slice of exactly n elements backed by the arena,
// growing the backing store if needed. Contents are unspecified. When
// metrics are enabled each call is classified as a pool reuse (capacity
// sufficed) or a grow (reallocation) — the observable form of the
// steady-state zero-alloc claim.
func (ar *arena[T]) ensure(n int) []T {
	if cap(ar.buf) < n {
		if metrics.Enabled() {
			mArenaGrow.Inc()
		}
		ar.buf = make([]T, n)
	} else if metrics.Enabled() {
		mArenaReuse.Inc()
	}
	return ar.buf[:n]
}

// packB packs op(B)[pc:pc+kc, jc:jc+nc] into bp as a sequence of nr-wide
// micro-panels, each laid out k-major: element (l, jj) of micro-panel jp
// lands at bp[jp*kc*nr + l*nr + jj]. Ragged right edges are zero-padded to
// nr so the micro-kernel always reads full lanes. b may be strided; the
// packed panel is always unit-stride.
func packB[T tensor.Float](bp []T, b *tensor.Dense[T], transB bool, pc, kc, jc, nc int) {
	nr := tileNR[T]()
	for jp := 0; jp*nr < nc; jp++ {
		j0 := jc + jp*nr
		w := min(nr, jc+nc-j0)
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
		} else {
			for l := 0; l < kc; l++ {
				off := (pc+l)*b.Stride + j0
				copy(panel[l*nr:l*nr+w], b.Data[off:off+w])
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
func packA[T tensor.Float](ap []T, a *tensor.Dense[T], transA bool, i0, h, pc, kc int) {
	mr := tileMR[T]()
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
// micro-kernel: the accumulators live in eight YMM registers with
// independent dependency chains, each k step issues two packed loads of B,
// four broadcasts of A and eight fused multiply-adds, and both operands
// stream unit-stride from the packed buffers. Everywhere else the pure-Go
// kernelTileGo computes the same tile.
func (p *precision[T]) kernelTile(kc int, ap, bp, out []T) {
	if activePath != pathGo {
		p.tile(kc, &ap[0], &bp[0], &out[0])
		return
	}
	kernelTileGo(kc, ap, 1, tileMR[T](), bp, out)
}

// kernelTileStrided is kernelTile reading the mr×kc sliver of op(A) where
// it lies instead of from a packed buffer: element (ii, l) is a[ii*rs+l*cs]
// (rs, cs > 0, in elements). Each C element runs the same FMA chain as in
// kernelTile, so the tile is bitwise what packA followed by kernelTile
// computes. The narrow GEMM path uses it for full row tiles, where a packed
// sliver would feed only one or two micro-panels; p.strided must be set.
func (p *precision[T]) kernelTileStrided(kc int, a []T, rs, cs int, bp, out []T) {
	_ = a[(tileMR[T]()-1)*rs+(kc-1)*cs]
	_ = bp[:kc*tileNR[T]()]
	if activePath != pathGo {
		size := int(unsafe.Sizeof(T(0)))
		p.strided(kc, &a[0], rs*size, cs*size, &bp[0], &out[0])
		return
	}
	kernelTileGo(kc, a, rs, cs, bp, out)
}

// kernelTileGo is the pure-Go tile over op(A) element (ii, l) at
// a[ii*rs+l*cs]: strides (1, mr) for a packed sliver, the matrix's own for
// an in-place read. It runs the tile as 4×2 register sub-tiles (eight
// scalar accumulators + six operand temporaries fit amd64's sixteen FP
// registers, so the loop runs spill-free): one row quad at f64, two at
// f32.
func kernelTileGo[T tensor.Float](kc int, a []T, rs, cs int, bp, out []T) {
	mr, nr := tileMR[T](), tileNR[T]()
	_ = a[(mr-1)*rs+(kc-1)*cs]
	_ = bp[:kc*nr]
	_ = out[:mr*nr]
	for quad := 0; quad < mr; quad += 4 {
		aq := a[quad*rs:]
		for half := 0; half < nr/2; half++ {
			var s00, s01 T
			var s10, s11 T
			var s20, s21 T
			var s30, s31 T
			aoff, boff := 0, half*2
			for l := 0; l < kc; l++ {
				a0, a1, a2, a3 := aq[aoff], aq[aoff+rs], aq[aoff+2*rs], aq[aoff+3*rs]
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
			j := quad*nr + half*2
			out[0*nr+j], out[0*nr+j+1] = s00, s01
			out[1*nr+j], out[1*nr+j+1] = s10, s11
			out[2*nr+j], out[2*nr+j+1] = s20, s21
			out[3*nr+j], out[3*nr+j+1] = s30, s31
		}
	}
}

// foldTile folds the computed register tile into C:
//
//	C = beta·C + alpha·acc    (beta == 1 for every k-panel after the first)
//
// h×w (≤ mr×nr) is the valid extent of the tile in C; the zero-padded
// lanes outside it are discarded.
func foldTile[T tensor.Float](out []T, alpha, beta T, c *tensor.Dense[T], i0, j0, h, w int) {
	nr := tileNR[T]()
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
