//go:build amd64 && !noasm

package kernels

// cpuSupportsAVX512 reports whether the CPU and OS support the AVX-512F
// instructions used by dgemmKernel4x24 and sgemmKernel8x32: CPUID leaf 7
// EBX bit 16, plus XGETBV confirmation that the OS preserves the opmask and
// full ZMM state (XCR0 bits 1, 2, 5, 6 and 7).
func cpuSupportsAVX512() bool

// dgemmKernel4x24 computes three adjacent 4×8 register tiles, one per
// packed B micro-panel:
//
//	out[p*32+ii*8+jj] = Σ_{l<kc} ap[l*4+ii] · bp[p*kc*8+l*8+jj]   (p < 3)
//
// with AVX-512 fused multiply-adds. Each tile is bitwise what
// dgemmKernel4x8 computes for that panel. out is a 96-element buffer; kc
// must be >= 1.
//
//go:noescape
func dgemmKernel4x24(kc int, ap, bp, out *float64)

// sgemmKernel8x32 computes two adjacent 8×16 float32 register tiles, one
// per packed B micro-panel:
//
//	out[p*128+ii*16+jj] = Σ_{l<kc} ap[l*8+ii] · bp[p*kc*16+l*16+jj]   (p < 2)
//
// with AVX-512 fused multiply-adds. Each tile is bitwise what
// sgemmKernel8x16 computes for that panel. out is a 256-element buffer; kc
// must be >= 1.
//
//go:noescape
func sgemmKernel8x32(kc int, ap, bp, out *float32)
