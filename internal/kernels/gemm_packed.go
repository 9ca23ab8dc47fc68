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

// gemmPacked runs C = alpha·op(A)·op(B) + beta·C through the packed
// micro-kernel, parallelized over row tiles when the level and pool allow.
// The summation order over k is fixed by the packing loop (k-panels in
// ascending order, ascending l within a panel) and every C tile is written
// by exactly one worker, so results are bit-identical for any worker count
// — Blocked and ParallelBlocked produce the same floats.
func gemmPacked(pool *parallel.Pool, lvl Level, transA, transB bool, alpha float64, a, b *tensor.Matrix, beta float64, c *tensor.Matrix, m, k, n int) {
	g := gemmStatePool.Get().(*gemmState)
	g.a, g.c = a, c
	g.transA, g.transB = transA, transB
	g.alpha, g.beta = alpha, beta
	g.m = m
	g.bArena = arenaPool.Get().(*arena)
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
			g.bp = g.bArena.ensure(((nc + nr - 1) / nr) * kc * nr)
			packB(g.bp, b, transB, pc, kc, jc, nc)
			if useDeviceParallel {
				pool.ForRanger(tiles, parallel.Static, 0, g)
			} else {
				g.Range(0, tiles)
			}
		}
	}
	arenaPool.Put(g.bArena)
	*g = gemmState{}
	gemmStatePool.Put(g)
}
