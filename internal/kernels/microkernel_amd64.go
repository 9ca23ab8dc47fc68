//go:build amd64 && !noasm

package kernels

// detectKernelPath picks the widest micro-kernel family the CPU and OS
// support. The AVX-512 family needs the AVX2 one too: its leftover panels
// run through the 4×8 and 8×16 tiles. The noasm build tag compiles out
// both families; the AVX2 path on an AVX-512 host is exercised by tests
// that switch activePath inside one binary.
func detectKernelPath() kernelPath {
	switch {
	case !cpuSupportsAVX2FMA():
		return pathGo
	case cpuSupportsAVX512():
		return pathAVX512
	}
	return pathAVX2
}

// cpuSupportsAVX2FMA reports whether the CPU and OS support the AVX2+FMA
// instructions used by dgemmKernel4x8 (CPUID feature bits plus XGETBV
// confirmation that the OS preserves YMM state).
func cpuSupportsAVX2FMA() bool

// dgemmKernel4x8 computes the 4×8 register tile
//
//	out[ii*8+jj] = Σ_{l<kc} ap[l*4+ii] · bp[l*8+jj]
//
// with AVX2 fused multiply-adds. ap is a packed A sliver (k-major, 4-wide),
// bp a packed B micro-panel (k-major, 8-wide), out a 32-element buffer.
// kc must be >= 1.
//
//go:noescape
func dgemmKernel4x8(kc int, ap, bp, out *float64)

// dgemmKernel4x8s is dgemmKernel4x8 reading op(A) where it lies:
//
//	out[ii*8+jj] = Σ_{l<kc} A(ii, l) · bp[l*8+jj]
//
// where A(ii, l) is the float64 at byte offset ii*rsA + l*csA from a —
// strides (8, stride·8) for a transposed A, (stride·8, 8) otherwise. Every
// accumulator sees the same fused multiply-adds in the
// same order as in dgemmKernel4x8, so the tile is bitwise what the kernel
// computes over the packed sliver. kc must be >= 1.
//
//go:noescape
func dgemmKernel4x8s(kc int, a *float64, rsA, csA int, bp, out *float64)

// sgemmKernel8x16 computes the 8×16 float32 register tile
//
//	out[ii*16+jj] = Σ_{l<kc} ap[l*8+ii] · bp[l*16+jj]
//
// with AVX2 fused multiply-adds — twice the rows and columns of the f64
// tile, same register budget, because float32 packs eight lanes per YMM.
// ap is a packed A sliver (k-major, 8-wide), bp a packed B micro-panel
// (k-major, 16-wide), out a 128-element buffer. kc must be >= 1.
//
//go:noescape
func sgemmKernel8x16(kc int, ap, bp, out *float32)
