package kernels

import (
	"sync"

	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// gemmState is the loop descriptor of one packed GEMM. It implements
// parallel.Ranger so row-tile ranges can be submitted to the pool without
// allocating a closure, and it is pooled so steady-state packed GEMMs
// allocate nothing at all. The packed B panel inside it is written by the
// submitting goroutine and shared read-only by every worker: each panel is
// packed exactly once per GEMM, not once per worker.
type gemmState struct {
	a, c           *tensor.Matrix
	transA, transB bool
	alpha, beta    float64
	m              int
	// Current panel: op(B)[pc:pc+kc, jc:jc+nc] packed into bp.
	pc, kc, jc, nc int
	first          bool // first k-panel of this jc block: fold beta here
	bArena         *arena
	bp             []float64
}

var gemmStatePool = sync.Pool{New: func() any { return new(gemmState) }}

// Range processes row tiles [lo, hi) (tile t covers C rows
// [t*mr, t*mr+mr)) of the current panel. Each worker packs its own op(A)
// slivers into a worker-local arena (mr×kc ≈ 8 KiB, L1-resident) and reuses
// the sliver across every micro-panel of the shared packed B. On the avx512
// path the micro-panels go three at a time through dgemmKernel4x24 and the
// remaining one or two through the 4×8 tile.
func (g *gemmState) Range(lo, hi int) {
	ar := arenaPool.Get().(*arena)
	ap := ar.ensure(g.kc * mr)
	beta := 1.0
	if g.first {
		beta = g.beta
	}
	panels := (g.nc + nr - 1) / nr
	wide := 0
	if activePath == pathAVX512 {
		wide = panels - panels%3
	}
	panelLen := g.kc * nr
	var acc [3 * mr * nr]float64
	for t := lo; t < hi; t++ {
		i0 := t * mr
		h := mr
		if rem := g.m - i0; rem < h {
			h = rem
		}
		packA(ap, g.a, g.transA, i0, h, g.pc, g.kc)
		jp := 0
		for ; jp < wide; jp += 3 {
			bp := g.bp[jp*panelLen : (jp+3)*panelLen]
			dgemmKernel4x24(g.kc, &ap[0], &bp[0], &acc[0])
			for p := range 3 {
				j0 := g.jc + (jp+p)*nr
				foldTile((*[mr * nr]float64)(acc[p*mr*nr:]), g.alpha, beta, g.c, i0, j0, h, min(nr, g.jc+g.nc-j0))
			}
		}
		for ; jp < panels; jp++ {
			tile := (*[mr * nr]float64)(acc[:])
			kernelTile(g.kc, ap, g.bp[jp*panelLen:(jp+1)*panelLen], tile)
			j0 := g.jc + jp*nr
			foldTile(tile, g.alpha, beta, g.c, i0, j0, h, min(nr, g.jc+g.nc-j0))
		}
	}
	arenaPool.Put(ar)
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
// Each B panel comes from pb when the caller packed op(B) ahead of time,
// and is otherwise packed into the pooled arena — the same bytes either
// way. The summation order over k is fixed by the packing loop (k-panels in
// ascending order, ascending l within a panel) and every C tile is written
// by exactly one worker, so results are bit-identical for any worker count
// — Blocked and ParallelBlocked produce the same floats.
func gemmPacked(pool *parallel.Pool, lvl Level, transA, transB bool, alpha float64, a, b *tensor.Matrix, pb *PackedB, beta float64, c *tensor.Matrix, m, k, n int) {
	g := gemmStatePool.Get().(*gemmState)
	g.a, g.c = a, c
	g.transA, g.transB = transA, transB
	g.alpha, g.beta = alpha, beta
	g.m = m
	if pb == nil {
		g.bArena = arenaPool.Get().(*arena)
	}
	useDeviceParallel := lvl.IsParallel() && pool != nil && pool.Workers() > 1
	tiles := (m + mr - 1) / mr
	for jc := 0; jc < n; jc += ncBlock {
		nc := ncBlock
		if rem := n - jc; rem < nc {
			nc = rem
		}
		for pc := 0; pc < k; pc += kcBlock {
			kc := kcBlock
			if rem := k - pc; rem < kc {
				kc = rem
			}
			g.pc, g.kc, g.jc, g.nc = pc, kc, jc, nc
			g.first = pc == 0
			if pb != nil {
				g.bp = pb.block(jc, nc, pc, kc)
			} else {
				g.bp = g.bArena.ensure(roundUp(nc, nr) * kc)
				packB(g.bp, b, transB, pc, kc, jc, nc)
			}
			if useDeviceParallel {
				pool.ForRanger(tiles, parallel.Static, 0, g)
			} else {
				g.Range(0, tiles)
			}
		}
	}
	if g.bArena != nil {
		arenaPool.Put(g.bArena)
	}
	*g = gemmState{}
	gemmStatePool.Put(g)
}
