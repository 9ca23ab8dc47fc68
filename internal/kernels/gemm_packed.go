package kernels

import (
	"sync"

	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// narrowN is the widest op(B), in columns, that takes the narrow path: two
// micro-panels. There a packed op(A) sliver would feed only one or two
// tiles, so packing it costs about what the tiles do, and each k-panel's
// fork/join costs more than its work.
const narrowN = 2 * nr

// gemmState is the loop descriptor of one packed GEMM. It implements
// parallel.Ranger so row-tile ranges can be submitted to the pool without
// allocating a closure, and it is pooled so steady-state packed GEMMs
// allocate nothing at all. On the wide path the current block blk is
// written by the submitting goroutine and shared read-only by every
// worker: each B panel is packed exactly once per GEMM, not once per
// worker.
type gemmState struct {
	a, b, c        *tensor.Matrix
	pb             *PackedB
	transA, transB bool
	alpha, beta    float64
	m, k, n        int
	blk            gemmBlock
	bArena         *arena
}

// gemmBlock is one (jc, pc) block of the loop: op(B)[pc:pc+kc, jc:jc+nc]
// packed into bp.
type gemmBlock struct {
	pc, kc, jc, nc int
	bp             []float64
}

var gemmStatePool = sync.Pool{New: func() any { return new(gemmState) }}

// setBlock points blk at block (jc, pc), taking its panels from pb when the
// caller packed op(B) ahead of time and otherwise packing them into ar —
// the same bytes either way.
func (g *gemmState) setBlock(blk *gemmBlock, ar *arena, jc, nc, pc, kc int) {
	blk.pc, blk.kc, blk.jc, blk.nc = pc, kc, jc, nc
	if g.pb != nil {
		blk.bp = g.pb.block(jc, nc, pc, kc)
		return
	}
	blk.bp = ar.ensure(roundUp(nc, nr) * kc)
	packB(blk.bp, g.b, g.transB, pc, kc, jc, nc)
}

// Range processes row tiles [lo, hi) of the wide path's current block.
func (g *gemmState) Range(lo, hi int) { g.tiles(&g.blk, lo, hi, false) }

// tiles processes row tiles [lo, hi) (tile t covers C rows
// [t*mr, t*mr+mr)) of block blk. Each call packs its op(A) slivers into a
// worker-local arena (mr×kc ≈ 8 KiB, L1-resident) and reuses each sliver
// across every micro-panel of blk. On the avx512 path the micro-panels go
// three at a time through dgemmKernel4x24 and the remaining one or two
// through the 4×8 tile. With inPlace (the narrow path, at most two panels)
// full row tiles skip packA and read op(A) where it lies.
func (g *gemmState) tiles(blk *gemmBlock, lo, hi int, inPlace bool) {
	ar := arenaPool.Get().(*arena)
	ap := ar.ensure(blk.kc * mr)
	beta := 1.0
	if blk.pc == 0 {
		beta = g.beta // first k-panel of the jc block: fold beta here
	}
	panels := (blk.nc + nr - 1) / nr
	wide := 0
	if activePath == pathAVX512 && !inPlace {
		wide = panels - panels%3
	}
	panelLen := blk.kc * nr
	var acc [3 * mr * nr]float64
	for t := lo; t < hi; t++ {
		i0 := t * mr
		h := min(mr, g.m-i0)
		direct := inPlace && h == mr
		var a []float64
		var rs, cs int
		switch {
		case !direct:
			packA(ap, g.a, g.transA, i0, h, blk.pc, blk.kc)
		case g.transA:
			a, rs, cs = g.a.Data[blk.pc*g.a.Stride+i0:], 1, g.a.Stride
		default:
			a, rs, cs = g.a.Data[i0*g.a.Stride+blk.pc:], g.a.Stride, 1
		}
		jp := 0
		for ; jp < wide; jp += 3 {
			bp := blk.bp[jp*panelLen : (jp+3)*panelLen]
			dgemmKernel4x24(blk.kc, &ap[0], &bp[0], &acc[0])
			for p := range 3 {
				j0 := blk.jc + (jp+p)*nr
				foldTile((*[mr * nr]float64)(acc[p*mr*nr:]), g.alpha, beta, g.c, i0, j0, h, min(nr, blk.jc+blk.nc-j0))
			}
		}
		for ; jp < panels; jp++ {
			tile := (*[mr * nr]float64)(acc[:])
			bp := blk.bp[jp*panelLen : (jp+1)*panelLen]
			if direct {
				kernelTileStrided(blk.kc, a, rs, cs, bp, tile)
			} else {
				kernelTile(blk.kc, ap, bp, tile)
			}
			j0 := blk.jc + jp*nr
			foldTile(tile, g.alpha, beta, g.c, i0, j0, h, min(nr, blk.jc+blk.nc-j0))
		}
	}
	arenaPool.Put(ar)
}

// gemmNarrow is the narrow path's Ranger over a gemmState: one region
// covers the whole GEMM. Each worker walks every k-panel in order over its
// own row tiles, packing the ≤ kc×narrowN B block into an arena of its own
// (or reading it from pb), so no fork/join separates the k-panels. B is
// packed once per worker instead of once per GEMM; at two micro-panels
// that costs less than a fork/join per k-panel.
type gemmNarrow gemmState

func (nw *gemmNarrow) Range(lo, hi int) {
	g := (*gemmState)(nw)
	var ar *arena
	if g.pb == nil {
		ar = arenaPool.Get().(*arena)
	}
	var blk gemmBlock
	// n ≤ narrowN < ncBlock: the loop's single jc block.
	for pc := 0; pc < g.k; pc += kcBlock {
		g.setBlock(&blk, ar, 0, g.n, pc, min(kcBlock, g.k-pc))
		g.tiles(&blk, lo, hi, true)
	}
	if ar != nil {
		arenaPool.Put(ar)
	}
}

// PackedB is a constant right-hand GEMM operand packed once and reused
// across GemmPacked calls — the weights of a serving replica, which the
// per-call path re-packs for every micro-batch. It holds the panels packB
// writes for every (jc, pc) block of gemmPacked's loop, laid out in loop
// order, plus the source matrix for the scalar levels. A handle is
// immutable after PackB returns and safe to share across goroutines; the
// source matrix must not change while the handle is in use.
type PackedB struct {
	b      *tensor.Matrix
	transB bool
	k      int
	panels []float64
}

// PackB packs op(b) for reuse. The blocked levels never read b again; the
// scalar levels read it on every call.
func PackB(b *tensor.Matrix, transB bool) *PackedB {
	k, n := opShape(b, transB)
	pb := &PackedB{b: b, transB: transB, k: k, panels: make([]float64, k*roundUp(n, nr))}
	for jc := 0; jc < n; jc += ncBlock {
		nc := min(ncBlock, n-jc)
		for pc := 0; pc < k; pc += kcBlock {
			kc := min(kcBlock, k-pc)
			packB(pb.block(jc, nc, pc, kc), b, transB, pc, kc, jc, nc)
		}
	}
	return pb
}

// block returns the packed panels of op(B)[pc:pc+kc, jc:jc+nc]. Every jc
// block before the last is ncBlock wide (a multiple of nr, so it packs
// without padding) and spans all k rows, which puts block (jc, pc) at jc·k
// plus the pc rows of its own padded width.
func (pb *PackedB) block(jc, nc, pc, kc int) []float64 {
	w := roundUp(nc, nr)
	off := jc*pb.k + pc*w
	return pb.panels[off : off+kc*w]
}

// gemmPacked runs C = alpha·op(A)·op(B) + beta·C through the packed
// micro-kernel, parallelized over row tiles when the level and pool allow.
// The summation order over k is fixed by the block loop (k-panels in
// ascending order, ascending l within a panel) and every C tile is written
// by exactly one worker, so results are bit-identical for any worker count
// — Blocked and ParallelBlocked produce the same floats.
//
// A wide op(B) runs one region per (jc, pc) block over B panels packed once
// on the submitting goroutine. A narrow one (n ≤ narrowN) runs as a single
// gemmNarrow region whose full row tiles read op(A) in place. Both paths
// give every C element the same FMA chain per k-panel and the same
// foldTile sequence, so they agree bit for bit.
func gemmPacked(pool *parallel.Pool, lvl Level, transA, transB bool, alpha float64, a, b *tensor.Matrix, pb *PackedB, beta float64, c *tensor.Matrix, m, k, n int) {
	g := gemmStatePool.Get().(*gemmState)
	*g = gemmState{a: a, b: b, c: c, pb: pb, transA: transA, transB: transB, alpha: alpha, beta: beta, m: m, k: k, n: n}
	if !lvl.IsParallel() || pool == nil || pool.Workers() == 1 {
		pool = nil
	}
	tiles := (m + mr - 1) / mr
	switch {
	case n <= narrowN && pool != nil:
		pool.ForRanger(tiles, parallel.Static, 0, (*gemmNarrow)(g))
	case n <= narrowN:
		(*gemmNarrow)(g).Range(0, tiles)
	default:
		g.runWide(pool, tiles)
	}
	*g = gemmState{}
	gemmStatePool.Put(g)
}

// runWide walks the (jc, pc) blocks on the submitting goroutine, packing
// each B block once into a shared arena unless pb holds it, and runs each
// block's row tiles as one region (inline without a pool).
func (g *gemmState) runWide(pool *parallel.Pool, tiles int) {
	if g.pb == nil {
		g.bArena = arenaPool.Get().(*arena)
	}
	for jc := 0; jc < g.n; jc += ncBlock {
		nc := min(ncBlock, g.n-jc)
		for pc := 0; pc < g.k; pc += kcBlock {
			g.setBlock(&g.blk, g.bArena, jc, nc, pc, min(kcBlock, g.k-pc))
			if pool != nil {
				pool.ForRanger(tiles, parallel.Static, 0, g)
			} else {
				g.Range(0, tiles)
			}
		}
	}
	if g.bArena != nil {
		arenaPool.Put(g.bArena)
	}
}
