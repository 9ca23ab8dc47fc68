// Package blas is phideep's stand-in for the Intel MKL layer of the paper:
// typed linear-algebra and neural-net primitives that execute on a
// device.Device, charging the simulated cost of each launch and (on numeric
// devices) running the matching internal/kernels implementation.
//
// A Context carries the execution configuration of the Table I ladder — the
// kernel Level, whether elementwise loops are VPU-vectorized, how many
// cores and threads per core to use — plus the loop-fusion state used by
// the "Improved OpenMP+MKL" row. Models call Context methods exclusively;
// they never touch kernels or the device directly, so one switch of the
// Context replays an entire training run at a different optimization level.
package blas

import (
	"fmt"

	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/rng"
	"phideep/internal/sim"
)

// Context is an execution configuration bound to a device. Contexts are
// cheap values; derive variants by copying and adjusting fields.
type Context struct {
	Dev *device.Device

	// Level selects the kernel implementation ladder step.
	Level kernels.Level
	// Vector marks kernels as VPU-vectorized for the cost model. The
	// numeric kernels are the same either way (Go has no intrinsics); the
	// simulated time differs, which is the paper-relevant effect.
	Vector bool
	// Cores/ThreadsPerCore bound the launch configuration (0 = arch
	// defaults). Table I's right column is Cores=30.
	Cores          int
	ThreadsPerCore int

	// RNG drives sampling kernels (CD-k Gibbs steps).
	RNG *rng.RNG

	// AutoFuse enables the loop-fusion optimization: models wrap their
	// update loops in MaybeFused, which fuses only when this is set (the
	// "Improved OpenMP+MKL" row of Table I).
	AutoFuse bool
	// AutoConcurrent enables the Fig. 6 dependency-graph scheduling:
	// models wrap independent op groups in MaybeConcurrent.
	AutoConcurrent bool

	// fusion state; see Fused.
	fused     bool
	fuseFirst bool
	// recording collects ops for a Concurrent group; see Concurrent.
	recording *[]device.Branch
	// spare is the last group's branch slice, cleared, for the next group.
	spare []device.Branch
}

// NewContext returns a context at the given ladder level with the
// conventional vectorization for that level (only the MKL-grade
// ParallelBlocked kernels are vectorized, as in the paper).
func NewContext(dev *device.Device, lvl kernels.Level, seed uint64) *Context {
	return &Context{
		Dev:    dev,
		Level:  lvl,
		Vector: lvl == kernels.ParallelBlocked,
		RNG:    rng.New(seed),
	}
}

// Fused runs body as one fused parallel region: the fork/join cost is
// charged once for the first kernel and suppressed for the rest. This is
// the loop-combining optimization of §IV.B.2 ("we finally combine several
// loops together to make the granularity more suitable"). Fused regions do
// not nest.
func (c *Context) Fused(body func()) {
	if c.fused {
		panic("blas: nested Fused regions")
	}
	c.fused = true
	c.fuseFirst = true
	defer func() { c.fused = false }()
	body()
}

// Concurrent runs body, capturing every kernel it issues, and launches the
// captured kernels as one concurrent group on the device (Fig. 6: matrix
// operations with no dependency edges between them execute at the same
// time, sharing the cores and a single fork/join). The kernels issued
// inside body must be mutually independent; value-returning reductions are
// not allowed inside a Concurrent region. Concurrent regions do not nest
// and may not appear inside Fused.
func (c *Context) Concurrent(body func()) {
	if c.recording != nil {
		panic("blas: nested Concurrent regions")
	}
	if c.fused {
		panic("blas: Concurrent inside Fused")
	}
	branches := c.spare[:0]
	c.spare = nil
	c.recording = &branches
	func() {
		defer func() { c.recording = nil }()
		body()
	}()
	c.Dev.ExecConcurrent(branches)
	clear(branches)
	c.spare = branches
}

// MaybeFused runs body under Fused when AutoFuse is set, else plainly.
func (c *Context) MaybeFused(body func()) {
	if c.AutoFuse {
		c.Fused(body)
	} else {
		body()
	}
}

// MaybeConcurrent runs body under Concurrent when AutoConcurrent is set,
// else plainly (the ops then execute in issue order).
func (c *Context) MaybeConcurrent(body func()) {
	if c.AutoConcurrent {
		c.Concurrent(body)
	} else {
		body()
	}
}

// exec issues one kernel, either immediately or into the surrounding
// Concurrent recording.
func (c *Context) exec(op sim.Op, deps, writes []*device.Buffer, fn func()) {
	if c.recording != nil {
		*c.recording = append(*c.recording, device.Branch{Op: op, Deps: deps, Writes: writes, Fn: fn})
		return
	}
	c.Dev.Exec(op, deps, writes, fn)
}

// op assembles a sim.Op with the context's configuration and fusion state.
func (c *Context) op(kind sim.OpKind, m, k, n, elems int, flopsPerElem, bytesPerElem float64) sim.Op {
	fusedAway := false
	if c.fused {
		fusedAway = !c.fuseFirst
		c.fuseFirst = false
	}
	return sim.Op{
		Kind: kind, M: m, K: k, N: n,
		Elems: elems, FlopsPerElem: flopsPerElem, BytesPerElem: bytesPerElem,
		Level: c.Level, Cores: c.Cores, ThreadsPerCore: c.ThreadsPerCore,
		Vector: c.Vector, Fused: fusedAway,
	}
}

func opShape(b *device.Buffer, trans bool) (int, int) {
	if trans {
		return b.Cols, b.Rows
	}
	return b.Rows, b.Cols
}

// Gemm computes C = alpha·op(A)·op(B) + beta·C on the device.
func (c *Context) Gemm(transA, transB bool, alpha float64, a, b *device.Buffer, beta float64, dst *device.Buffer) {
	c.GemmPacked(transA, transB, alpha, a, b, nil, beta, dst)
}

// GemmPacked is Gemm with op(B) also supplied as pb, a pack-once handle of
// b's contents (see Packs): the kernel reads the handle's panels instead of
// re-packing b. It is the same launch as Gemm — same simulated op, same
// dependencies and writes — and gives the same bits. A nil pb is plain
// Gemm, so forward code shared by training and inference calls it
// unconditionally.
func (c *Context) GemmPacked(transA, transB bool, alpha float64, a, b *device.Buffer, pb *kernels.PackedB[float64], beta float64, dst *device.Buffer) {
	m, ka := opShape(a, transA)
	kb, n := opShape(b, transB)
	if ka != kb || dst.Rows != m || dst.Cols != n {
		panic(fmt.Sprintf("blas: Gemm shape mismatch: op(A)=%dx%d op(B)=%dx%d C=%dx%d", m, ka, kb, n, dst.Rows, dst.Cols))
	}
	c.exec(c.op(sim.OpGemm, m, ka, n, 0, 0, 0),
		[]*device.Buffer{a, b, dst}, []*device.Buffer{dst},
		func() {
			if pb != nil {
				kernels.GemmPacked(c.Dev.Pool, c.Level, transA, alpha, a.Mat, pb, beta, dst.Mat)
			} else {
				kernels.Gemm(c.Dev.Pool, c.Level, transA, transB, alpha, a.Mat, b.Mat, beta, dst.Mat)
			}
		})
}

// Packs is an inference model's lazy cache of pack-once GEMM operands: each
// constant weight is packed on the first GEMM that reads it and reused by
// every later batch — the host form of the paper's parameters kept resident
// in device memory (§IV.B). Packing is lazy so a replica holds handles only
// for the operands its traffic reads: an encode-only autoencoder server
// never packs its decoder. A nil *Packs never packs and returns nil
// handles, which is what training models hold: their weights change every
// step. A Packs belongs to one model and is not safe for concurrent use.
type Packs struct {
	held []packed
}

type packed struct {
	b      *device.Buffer
	transB bool
	pb     *kernels.PackedB[float64]
}

// B returns the handle of op(b), packing it on first use. It returns nil on
// a nil Packs and on a model-only device, whose buffers hold no numbers.
func (p *Packs) B(b *device.Buffer, transB bool) *kernels.PackedB[float64] {
	if p == nil || b.Mat == nil {
		return nil
	}
	for _, h := range p.held {
		if h.b == b && h.transB == transB {
			return h.pb
		}
	}
	pb := kernels.PackB(b.Mat, transB)
	p.held = append(p.held, packed{b, transB, pb})
	return pb
}

// Reset drops every handle. Models call it whenever they overwrite their
// weights (Upload, RestoreState), so the next GEMM packs the new values.
func (p *Packs) Reset() {
	if p != nil {
		p.held = nil
	}
}

// Sigmoid computes dst = σ(src) elementwise (Eqs. 14–15 in vector form).
func (c *Context) Sigmoid(dst, src *device.Buffer) {
	c.exec(c.op(sim.OpElem, 0, 0, 0, src.Rows*src.Cols, 20, 16),
		[]*device.Buffer{src}, []*device.Buffer{dst},
		func() { kernels.Sigmoid(c.Dev.Pool, c.Level, dst.Mat, src.Mat) })
}

// SigmoidPrimeFromY computes dst = y⊙(1−y).
func (c *Context) SigmoidPrimeFromY(dst, y *device.Buffer) {
	c.exec(c.op(sim.OpElem, 0, 0, 0, y.Rows*y.Cols, 2, 16),
		[]*device.Buffer{y}, []*device.Buffer{dst},
		func() { kernels.SigmoidPrimeFromY(c.Dev.Pool, c.Level, dst.Mat, y.Mat) })
}

// AddBiasRow adds the 1×n bias buffer to every row of m.
func (c *Context) AddBiasRow(m, bias *device.Buffer) {
	if bias.Rows != 1 || bias.Cols != m.Cols {
		panic(fmt.Sprintf("blas: AddBiasRow bias %dx%d for matrix %dx%d", bias.Rows, bias.Cols, m.Rows, m.Cols))
	}
	c.exec(c.op(sim.OpElem, 0, 0, 0, m.Rows*m.Cols, 1, 16),
		[]*device.Buffer{m, bias}, []*device.Buffer{m},
		func() { kernels.AddBiasRow(c.Dev.Pool, c.Level, m.Mat, bias.Mat.RowView(0)) })
}
