package kernels

import (
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// gemmState is the loop descriptor of one packed GEMM. It implements
// parallel.Ranger so row-tile ranges can be submitted to the pool without
// allocating a closure, and it is pooled so steady-state packed GEMMs
// allocate nothing at all. On the wide path the current block blk is
// written by the submitting goroutine and shared read-only by every
// worker: each B panel is packed exactly once per GEMM, not once per
// worker.
type gemmState[T tensor.Float] struct {
	a, b, c        *tensor.Dense[T]
	pb             *PackedB[T]
	transA, transB bool
	alpha, beta    T
	m, k, n        int
	blk            gemmBlock[T]
	bArena         *arena[T]
}

// gemmBlock is one (jc, pc) block of the loop: op(B)[pc:pc+kc, jc:jc+nc]
// packed into bp.
type gemmBlock[T tensor.Float] struct {
	pc, kc, jc, nc int
	bp             []T
}

// setBlock points blk at block (jc, pc), taking its panels from pb when the
// caller packed op(B) ahead of time and otherwise packing them into ar —
// the same bytes either way.
func (g *gemmState[T]) setBlock(blk *gemmBlock[T], ar *arena[T], jc, nc, pc, kc int) {
	blk.pc, blk.kc, blk.jc, blk.nc = pc, kc, jc, nc
	if g.pb != nil {
		blk.bp = g.pb.block(jc, nc, pc, kc)
		return
	}
	blk.bp = ar.ensure(roundUp(nc, tileNR[T]()) * kc)
	packB(blk.bp, g.b, g.transB, pc, kc, jc, nc)
}

// Range processes row tiles [lo, hi) of the wide path's current block.
func (g *gemmState[T]) Range(lo, hi int) { g.tiles(&g.blk, lo, hi, false) }

// tiles processes row tiles [lo, hi) (tile t covers C rows
// [t*mr, t*mr+mr)) of block blk. Each call packs its op(A) slivers into a
// worker-local arena (mr×kc ≈ 8 KiB, L1-resident) and reuses each sliver
// across every micro-panel of blk; the same arena holds the register
// tiles' output. On the avx512 path the micro-panels go widePanels at a
// time through the ZMM tile and the rest through the AVX2 one. On the
// narrow path (at most two panels) only the AVX2 tile runs, and full row
// tiles skip packA and read op(A) where it lies if the precision has a
// strided tile.
func (g *gemmState[T]) tiles(blk *gemmBlock[T], lo, hi int, narrow bool) {
	p := prec[T]()
	mr, nr := tileMR[T](), tileNR[T]()
	ar := p.arenas.Get().(*arena[T])
	buf := ar.ensure(blk.kc*mr + p.widePanels*mr*nr)
	ap, acc := buf[:blk.kc*mr], buf[blk.kc*mr:]
	beta := T(1)
	if blk.pc == 0 {
		beta = g.beta // first k-panel of the jc block: fold beta here
	}
	panels := (blk.nc + nr - 1) / nr
	wide := 0
	if activePath == pathAVX512 && !narrow {
		wide = panels - panels%p.widePanels
	}
	panelLen := blk.kc * nr
	for t := lo; t < hi; t++ {
		i0 := t * mr
		h := min(mr, g.m-i0)
		direct := narrow && h == mr && p.strided != nil
		var a []T
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
		for ; jp < wide; jp += p.widePanels {
			bp := blk.bp[jp*panelLen : (jp+p.widePanels)*panelLen]
			p.wide(blk.kc, &ap[0], &bp[0], &acc[0])
			for q := range p.widePanels {
				j0 := blk.jc + (jp+q)*nr
				foldTile(acc[q*mr*nr:], g.alpha, beta, g.c, i0, j0, h, min(nr, blk.jc+blk.nc-j0))
			}
		}
		for ; jp < panels; jp++ {
			bp := blk.bp[jp*panelLen : (jp+1)*panelLen]
			if direct {
				p.kernelTileStrided(blk.kc, a, rs, cs, bp, acc)
			} else {
				p.kernelTile(blk.kc, ap, bp, acc)
			}
			j0 := blk.jc + jp*nr
			foldTile(acc, g.alpha, beta, g.c, i0, j0, h, min(nr, blk.jc+blk.nc-j0))
		}
	}
	p.arenas.Put(ar)
}

// gemmNarrow is the narrow path's Ranger over a gemmState: one region
// covers the whole GEMM. Each worker walks every k-panel in order over its
// own row tiles, packing the ≤ kc×narrowN B block into an arena of its own
// (or reading it from pb), so no fork/join separates the k-panels. B is
// packed once per worker instead of once per GEMM; at two micro-panels
// that costs less than a fork/join per k-panel.
type gemmNarrow[T tensor.Float] gemmState[T]

func (nw *gemmNarrow[T]) Range(lo, hi int) {
	g := (*gemmState[T])(nw)
	p := prec[T]()
	var ar *arena[T]
	if g.pb == nil {
		ar = p.arenas.Get().(*arena[T])
	}
	var blk gemmBlock[T]
	// n ≤ narrowN < ncBlock: the loop's single jc block.
	for pc := 0; pc < g.k; pc += kcBlock {
		g.setBlock(&blk, ar, 0, g.n, pc, min(kcBlock, g.k-pc))
		g.tiles(&blk, lo, hi, true)
	}
	if ar != nil {
		p.arenas.Put(ar)
	}
}

// PackedB is a constant right-hand GEMM operand packed once and reused
// across GemmPacked calls — the weights of a serving replica, which the
// per-call path re-packs for every micro-batch. It holds the panels packB
// writes for every (jc, pc) block of gemmPacked's loop, laid out in loop
// order, plus the source matrix for the scalar levels. A handle is
// immutable once built and safe to share across goroutines; the source
// matrix must not change while the handle is in use.
type PackedB[T tensor.Float] struct {
	b      *tensor.Dense[T]
	transB bool
	k      int
	panels []T
}

// PackedB32 is a pack-once float32 operand; see PackB.
type PackedB32 = PackedB[float32]

// PackB packs op(b) for reuse by GemmPacked. The blocked levels never read
// b again; the scalar levels read it on every call.
func PackB[T tensor.Float](b *tensor.Dense[T], transB bool) *PackedB[T] {
	k, n := opShape(b, transB)
	pb := &PackedB[T]{b: b, transB: transB, k: k, panels: make([]T, k*roundUp(n, tileNR[T]()))}
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
func (pb *PackedB[T]) block(jc, nc, pc, kc int) []T {
	w := roundUp(nc, tileNR[T]())
	off := jc*pb.k + pc*w
	return pb.panels[off : off+kc*w]
}

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int) int { return (n + m - 1) / m * m }

// gemmPacked runs C = alpha·op(A)·op(B) + beta·C through the packed
// micro-kernel, parallelized over row tiles when the level and pool allow
// and the work outweighs a helper's wake.
// The summation order over k is fixed by the block loop (k-panels in
// ascending order, ascending l within a panel) and every C tile is written
// by exactly one worker, so results are bit-identical for any worker count
// — Blocked and ParallelBlocked produce the same floats.
//
// A wide op(B) runs one region per (jc, pc) block over B panels packed once
// on the submitting goroutine. A narrow one (n ≤ narrowN) runs as a single
// gemmNarrow region. Both paths give every C element the same FMA chain
// per k-panel and the same foldTile sequence, so they agree bit for bit.
func gemmPacked[T tensor.Float](pool *parallel.Pool, lvl Level, transA, transB bool, alpha T, a, b *tensor.Dense[T], pb *PackedB[T], beta T, c *tensor.Dense[T], m, k, n int) {
	p := prec[T]()
	g := p.states.Get().(*gemmState[T])
	*g = gemmState[T]{a: a, b: b, c: c, pb: pb, transA: transA, transB: transB, alpha: alpha, beta: beta, m: m, k: k, n: n}
	mr := tileMR[T]()
	tiles := (m + mr - 1) / mr
	if n <= narrowN[T]() {
		team(pool, lvl, cost(nsPackedFMA, m, k, n)).ForRanger(tiles, parallel.Static, 0, (*gemmNarrow[T])(g))
	} else {
		g.runWide(pool, lvl, tiles)
	}
	*g = gemmState[T]{}
	p.states.Put(g)
}

// runWide walks the (jc, pc) blocks on the submitting goroutine, packing
// each B block once into a shared arena unless pb holds it, and runs each
// block's row tiles as one region.
func (g *gemmState[T]) runWide(pool *parallel.Pool, lvl Level, tiles int) {
	p := prec[T]()
	if g.pb == nil {
		g.bArena = p.arenas.Get().(*arena[T])
	}
	for jc := 0; jc < g.n; jc += ncBlock {
		nc := min(ncBlock, g.n-jc)
		for pc := 0; pc < g.k; pc += kcBlock {
			kc := min(kcBlock, g.k-pc)
			g.setBlock(&g.blk, g.bArena, jc, nc, pc, kc)
			team(pool, lvl, cost(nsPackedFMA, g.m, kc, nc)).ForRanger(tiles, parallel.Static, 0, g)
		}
	}
	if g.bArena != nil {
		p.arenas.Put(g.bArena)
	}
}
