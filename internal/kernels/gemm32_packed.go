package kernels

import (
	"sync"

	"phideep/internal/metrics"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// Cache-blocking parameters of the float32 packed GEMM path. The register
// tile doubles in both extents relative to the f64 kernel (eight float32
// lanes per YMM instead of four float64), so an A sliver stays 8 KiB
// (mr32×kc×4 bytes) and a full B panel halves to 512 KiB. As with the f64
// constants, changing these affects speed only, never results.
const (
	mr32      = 8   // micro-kernel rows of C held in accumulators
	nr32      = 16  // micro-kernel cols of C held in accumulators
	kcBlock32 = 256 // k-extent of a packed panel (A sliver: mr32×kc = 8 KiB)
	ncBlock32 = 512 // n-extent of a packed B panel (kc×nc = 512 KiB ceiling)
)

// arena32 is the float32 twin of arena: a reusable scratch buffer pooled so
// packing allocates nothing in steady state. It shares the arena reuse/grow
// metrics — the counters describe pack-arena behaviour across precisions.
type arena32 struct {
	buf []float32
}

func (ar *arena32) ensure(n int) []float32 {
	if cap(ar.buf) < n {
		if metrics.Enabled() {
			mArenaGrow.Inc()
		}
		ar.buf = make([]float32, n)
	} else if metrics.Enabled() {
		mArenaReuse.Inc()
	}
	return ar.buf[:n]
}

var arena32Pool = sync.Pool{New: func() any { return new(arena32) }}

// packB32 packs op(B)[pc:pc+kc, jc:jc+nc] into bp as nr32-wide micro-panels,
// k-major, zero-padding ragged right edges — the float32 layout twin of
// packB.
func packB32(bp []float32, b *tensor.Matrix32, transB bool, pc, kc, jc, nc int) {
	for jp := 0; jp*nr32 < nc; jp++ {
		j0 := jc + jp*nr32
		w := nr32
		if rem := jc + nc - j0; rem < w {
			w = rem
		}
		panel := bp[jp*kc*nr32 : (jp+1)*kc*nr32]
		if transB {
			for jj := 0; jj < w; jj++ {
				brow := b.RowView(j0 + jj)[pc : pc+kc]
				for l, v := range brow {
					panel[l*nr32+jj] = v
				}
			}
		} else if w == nr32 {
			// Full-width panel: one fixed-size array assignment per k
			// step instead of a RowView and a memmove call.
			for l := 0; l < kc; l++ {
				*(*[nr32]float32)(panel[l*nr32:]) = *(*[nr32]float32)(b.Data[(pc+l)*b.Stride+j0:])
			}
		} else {
			for l := 0; l < kc; l++ {
				brow := b.RowView(pc + l)[j0 : j0+w]
				dst := panel[l*nr32 : l*nr32+w]
				copy(dst, brow)
			}
		}
		if w < nr32 {
			for l := 0; l < kc; l++ {
				lane := panel[l*nr32 : (l+1)*nr32]
				for jj := w; jj < nr32; jj++ {
					lane[jj] = 0
				}
			}
		}
	}
}

// PackedB32 is a constant right-hand GEMM operand packed once and reused
// across Gemm32Packed calls — the served weight matrices, which the
// per-call path re-packed for every micro-batch. It holds the panels
// packB32 writes for every (jc, pc) block of gemmPacked32's loop, laid out
// in loop order, plus the source matrix for the scalar levels. A handle is
// immutable after PackB32 returns and safe to share across goroutines; the
// source matrix must not change while the handle is in use.
type PackedB32 struct {
	b      *tensor.Matrix32
	transB bool
	k      int
	panels []float32
}

// PackB32 packs op(b) for reuse. The blocked levels never read b again;
// the scalar levels read it on every call.
func PackB32(b *tensor.Matrix32, transB bool) *PackedB32 {
	k, n := opShape32(b, transB)
	pb := &PackedB32{b: b, transB: transB, k: k, panels: make([]float32, k*roundUp(n, nr32))}
	for jc := 0; jc < n; jc += ncBlock32 {
		nc := min(ncBlock32, n-jc)
		for pc := 0; pc < k; pc += kcBlock32 {
			kc := min(kcBlock32, k-pc)
			packB32(pb.block(jc, nc, pc, kc), b, transB, pc, kc, jc, nc)
		}
	}
	return pb
}

// block returns the packed panels of op(B)[pc:pc+kc, jc:jc+nc]. Every jc
// block before the last is ncBlock32 wide (a multiple of nr32, so it packs
// without padding) and spans all k rows, which puts block (jc, pc) at
// jc·k plus the pc rows of its own padded width.
func (pb *PackedB32) block(jc, nc, pc, kc int) []float32 {
	w := roundUp(nc, nr32)
	off := jc*pb.k + pc*w
	return pb.panels[off : off+kc*w]
}

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int) int { return (n + m - 1) / m * m }

// packA32 packs the mr32-row sliver op(A)[i0:i0+h, pc:pc+kc] into ap,
// k-major, zero-padding rows past h.
func packA32(ap []float32, a *tensor.Matrix32, transA bool, i0, h, pc, kc int) {
	if transA {
		for l := 0; l < kc; l++ {
			arow := a.RowView(pc + l)[i0 : i0+h]
			lane := ap[l*mr32 : l*mr32+mr32]
			for ii, v := range arow {
				lane[ii] = v
			}
			for ii := h; ii < mr32; ii++ {
				lane[ii] = 0
			}
		}
		return
	}
	for ii := 0; ii < h; ii++ {
		arow := a.RowView(i0 + ii)[pc : pc+kc]
		for l, v := range arow {
			ap[l*mr32+ii] = v
		}
	}
	for ii := h; ii < mr32; ii++ {
		for l := 0; l < kc; l++ {
			ap[l*mr32+ii] = 0
		}
	}
}

// kernelTile32 computes the full mr32×nr32 register tile
//
//	out[ii*nr32+jj] = Σ_l ap[l*mr32+ii] · bp[l*nr32+jj]
//
// over one packed A sliver and one packed B micro-panel. On amd64 with
// AVX2+FMA the tile runs in sgemmKernel8x16; elsewhere (and under -tags
// noasm) the pure-Go fallback computes the same tile with one rounding per
// multiply and add instead of fused multiply-adds — the cross-path
// difference is bounded by the equivalence suite's f64-reference tolerance.
func kernelTile32(kc int, ap, bp []float32, out *[mr32 * nr32]float32) {
	if activePath != pathGo {
		sgemmKernel8x16(kc, &ap[0], &bp[0], &out[0])
		return
	}
	kernelTile32Go(kc, ap, bp, out)
}

func kernelTile32Go(kc int, ap, bp []float32, out *[mr32 * nr32]float32) {
	for i := range out {
		out[i] = 0
	}
	_ = ap[:kc*mr32]
	_ = bp[:kc*nr32]
	for l := 0; l < kc; l++ {
		av := ap[l*mr32 : l*mr32+mr32]
		bv := bp[l*nr32 : l*nr32+nr32]
		for ii, a := range av {
			o := out[ii*nr32 : ii*nr32+nr32]
			for jj, b := range bv {
				o[jj] += a * b
			}
		}
	}
}

// foldTile32 folds the computed register tile into C with the same beta
// semantics as foldTile (beta==0 assigns, discarding stale contents).
func foldTile32(out *[mr32 * nr32]float32, alpha, beta float32, c *tensor.Matrix32, i0, j0, h, w int) {
	for ii := 0; ii < h; ii++ {
		crow := c.Data[(i0+ii)*c.Stride+j0:][:w]
		acc := out[ii*nr32 : ii*nr32+w]
		switch beta {
		case 1:
			for jj, v := range acc {
				crow[jj] += alpha * v
			}
		case 0:
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

// gemmState32 is the pooled loop descriptor of one float32 packed GEMM,
// mirroring gemmState: it implements parallel.Ranger so row-tile ranges are
// submitted without closure allocation, and the packed B panel is written
// once by the submitting goroutine and shared read-only by every worker.
type gemmState32 struct {
	a, c           *tensor.Matrix32
	transA, transB bool
	alpha, beta    float32
	m              int
	pc, kc, jc, nc int
	first          bool
	bArena         *arena32
	bp             []float32
}

var gemmState32Pool = sync.Pool{New: func() any { return new(gemmState32) }}

// Range processes row tiles [lo, hi) of the current panel; tile t covers C
// rows [t*mr32, t*mr32+mr32). Each worker packs its own A slivers into a
// worker-local arena and reuses them across the panel's micro-panels. On
// the avx512 path the micro-panels go in pairs through sgemmKernel8x32 and
// an odd last one through the 8×16 tile.
func (g *gemmState32) Range(lo, hi int) {
	ar := arena32Pool.Get().(*arena32)
	ap := ar.ensure(g.kc * mr32)
	beta := float32(1)
	if g.first {
		beta = g.beta
	}
	panels := (g.nc + nr32 - 1) / nr32
	wide := 0
	if activePath == pathAVX512 {
		wide = panels &^ 1
	}
	panelLen := g.kc * nr32
	var acc [2 * mr32 * nr32]float32
	for t := lo; t < hi; t++ {
		i0 := t * mr32
		h := mr32
		if rem := g.m - i0; rem < h {
			h = rem
		}
		packA32(ap, g.a, g.transA, i0, h, g.pc, g.kc)
		jp := 0
		for ; jp < wide; jp += 2 {
			bp := g.bp[jp*panelLen : (jp+2)*panelLen]
			sgemmKernel8x32(g.kc, &ap[0], &bp[0], &acc[0])
			for p := range 2 {
				j0 := g.jc + (jp+p)*nr32
				foldTile32((*[mr32 * nr32]float32)(acc[p*mr32*nr32:]), g.alpha, beta, g.c, i0, j0, h, min(nr32, g.jc+g.nc-j0))
			}
		}
		for ; jp < panels; jp++ {
			tile := (*[mr32 * nr32]float32)(acc[:])
			kernelTile32(g.kc, ap, g.bp[jp*panelLen:(jp+1)*panelLen], tile)
			j0 := g.jc + jp*nr32
			foldTile32(tile, g.alpha, beta, g.c, i0, j0, h, min(nr32, g.jc+g.nc-j0))
		}
	}
	arena32Pool.Put(ar)
}

// gemmPacked32 runs C = alpha·op(A)·op(B) + beta·C through the float32
// packed micro-kernel, parallelized over row tiles when the level and pool
// allow. Each B panel comes from pb when the caller packed op(B) ahead of
// time, and is otherwise packed into the pooled arena — the same bytes
// either way. The k summation order is fixed by the packing loop and every C
// tile is written by exactly one worker, so results are bit-identical for
// any worker count.
func gemmPacked32(pool *parallel.Pool, lvl Level, transA, transB bool, alpha float32, a, b *tensor.Matrix32, pb *PackedB32, beta float32, c *tensor.Matrix32, m, k, n int) {
	g := gemmState32Pool.Get().(*gemmState32)
	g.a, g.c = a, c
	g.transA, g.transB = transA, transB
	g.alpha, g.beta = alpha, beta
	g.m = m
	if pb == nil {
		g.bArena = arena32Pool.Get().(*arena32)
	}
	useDeviceParallel := lvl.IsParallel() && pool != nil && pool.Workers() > 1
	tiles := (m + mr32 - 1) / mr32
	for jc := 0; jc < n; jc += ncBlock32 {
		nc := ncBlock32
		if rem := n - jc; rem < nc {
			nc = rem
		}
		for pc := 0; pc < k; pc += kcBlock32 {
			kc := kcBlock32
			if rem := k - pc; rem < kc {
				kc = rem
			}
			g.pc, g.kc, g.jc, g.nc = pc, kc, jc, nc
			g.first = pc == 0
			if pb != nil {
				g.bp = pb.block(jc, nc, pc, kc)
			} else {
				g.bp = g.bArena.ensure(roundUp(nc, nr32) * kc)
				packB32(g.bp, b, transB, pc, kc, jc, nc)
			}
			if useDeviceParallel {
				pool.ForRanger(tiles, parallel.Static, 0, g)
			} else {
				g.Range(0, tiles)
			}
		}
	}
	if g.bArena != nil {
		arena32Pool.Put(g.bArena)
	}
	*g = gemmState32{}
	gemmState32Pool.Put(g)
}
