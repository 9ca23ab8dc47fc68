//go:build amd64 && !noasm

#include "textflag.h"

// func cpuSupportsAVX512() bool
TEXT ·cpuSupportsAVX512(SB), NOSPLIT, $0-1
	// CPUID leaf 0: highest supported leaf must reach 7.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  none

	// Leaf 1 ECX: OSXSAVE (bit 27), so XGETBV may run.
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<27), CX
	JZ   none

	// XCR0: the OS must preserve XMM (bit 1), YMM (bit 2), the opmask
	// registers (bit 5) and the upper halves of Z0-Z15 and all of Z16-Z31
	// (bits 6 and 7).
	MOVL   $0, CX
	XGETBV
	ANDL   $0xE6, AX
	CMPL   AX, $0xE6
	JNE    none

	// Leaf 7 subleaf 0 EBX: AVX512F (bit 16).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<16), BX
	JZ   none

	MOVB $1, ret+0(FP)
	RET

none:
	MOVB $0, ret+0(FP)
	RET

// STEP4x24 is one k step of dgemmKernel4x24: one 8-wide lane from each of
// the three B micro-panels (DI, R9, R10), the four A values of the sliver
// (SI) broadcast, and twelve fused multiply-adds into Z16..Z27, where
// Z(16+3i+p) holds row i of tile p.
#define STEP4x24(aoff, boff) \
	VMOVUPD      boff(DI), Z0; \
	VMOVUPD      boff(R9), Z1; \
	VMOVUPD      boff(R10), Z2; \
	VBROADCASTSD aoff(SI), Z3; \
	VBROADCASTSD aoff+8(SI), Z4; \
	VFMADD231PD  Z0, Z3, Z16; \
	VFMADD231PD  Z1, Z3, Z17; \
	VFMADD231PD  Z2, Z3, Z18; \
	VBROADCASTSD aoff+16(SI), Z5; \
	VFMADD231PD  Z0, Z4, Z19; \
	VFMADD231PD  Z1, Z4, Z20; \
	VFMADD231PD  Z2, Z4, Z21; \
	VBROADCASTSD aoff+24(SI), Z6; \
	VFMADD231PD  Z0, Z5, Z22; \
	VFMADD231PD  Z1, Z5, Z23; \
	VFMADD231PD  Z2, Z5, Z24; \
	VFMADD231PD  Z0, Z6, Z25; \
	VFMADD231PD  Z1, Z6, Z26; \
	VFMADD231PD  Z2, Z6, Z27

// func dgemmKernel4x24(kc int, ap, bp, out *float64)
//
// Three adjacent 4×8 tiles — one per packed B micro-panel, each panel kc·8
// float64s after the previous — in twelve ZMM accumulators. Every element
// sees the same FMA chain from zero as dgemmKernel4x8 gives it, so the two
// kernels agree bitwise. The k-loop is 2-way unrolled; an odd kc runs one
// tail step.
TEXT ·dgemmKernel4x24(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ out+24(FP), DX

	// Panel stride kc·8·8 bytes: R9 and R10 address panels 1 and 2.
	MOVQ CX, R8
	SHLQ $6, R8
	LEAQ (DI)(R8*1), R9
	LEAQ (R9)(R8*1), R10

	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27

	SUBQ $2, CX
	JLT  tail

loop:
	STEP4x24(0, 0)
	STEP4x24(32, 64)
	ADDQ $64, SI
	ADDQ $128, DI
	ADDQ $128, R9
	ADDQ $128, R10
	SUBQ $2, CX
	JGE  loop

tail:
	ADDQ $2, CX
	JZ   store
	STEP4x24(0, 0)

store:
	// Tile p occupies out[32p : 32p+32], row-major 4×8 as dgemmKernel4x8
	// writes it.
	VMOVUPD Z16, (DX)
	VMOVUPD Z19, 64(DX)
	VMOVUPD Z22, 128(DX)
	VMOVUPD Z25, 192(DX)
	VMOVUPD Z17, 256(DX)
	VMOVUPD Z20, 320(DX)
	VMOVUPD Z23, 384(DX)
	VMOVUPD Z26, 448(DX)
	VMOVUPD Z18, 512(DX)
	VMOVUPD Z21, 576(DX)
	VMOVUPD Z24, 640(DX)
	VMOVUPD Z27, 704(DX)
	VZEROUPPER
	RET

// STEP8x32 is one k step of sgemmKernel8x32: one 16-wide lane from each of
// the two B micro-panels (DI, R9), the eight A values of the sliver (SI)
// broadcast, and sixteen fused multiply-adds; Z(16+i) holds row i of tile
// 0 and Z(24+i) row i of tile 1.
#define STEP8x32(aoff, boff) \
	VMOVUPS      boff(DI), Z0; \
	VMOVUPS      boff(R9), Z1; \
	VBROADCASTSS aoff(SI), Z2; \
	VBROADCASTSS aoff+4(SI), Z3; \
	VFMADD231PS  Z0, Z2, Z16; \
	VFMADD231PS  Z1, Z2, Z24; \
	VBROADCASTSS aoff+8(SI), Z4; \
	VFMADD231PS  Z0, Z3, Z17; \
	VFMADD231PS  Z1, Z3, Z25; \
	VBROADCASTSS aoff+12(SI), Z5; \
	VFMADD231PS  Z0, Z4, Z18; \
	VFMADD231PS  Z1, Z4, Z26; \
	VBROADCASTSS aoff+16(SI), Z6; \
	VFMADD231PS  Z0, Z5, Z19; \
	VFMADD231PS  Z1, Z5, Z27; \
	VBROADCASTSS aoff+20(SI), Z7; \
	VFMADD231PS  Z0, Z6, Z20; \
	VFMADD231PS  Z1, Z6, Z28; \
	VBROADCASTSS aoff+24(SI), Z8; \
	VFMADD231PS  Z0, Z7, Z21; \
	VFMADD231PS  Z1, Z7, Z29; \
	VBROADCASTSS aoff+28(SI), Z9; \
	VFMADD231PS  Z0, Z8, Z22; \
	VFMADD231PS  Z1, Z8, Z30; \
	VFMADD231PS  Z0, Z9, Z23; \
	VFMADD231PS  Z1, Z9, Z31

// func sgemmKernel8x32(kc int, ap, bp, out *float32)
//
// Two adjacent 8×16 float32 tiles — one per packed B micro-panel, the
// second kc·16 floats after the first — in sixteen ZMM accumulators, one
// 16-float row each, so the whole 8-row sliver runs in a single pass where
// sgemmKernel8x16 needs two. Every element sees the same FMA chain from
// zero as in sgemmKernel8x16, so the two kernels agree bitwise. The k-loop
// is 2-way unrolled; an odd kc runs one tail step.
TEXT ·sgemmKernel8x32(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ out+24(FP), DX

	// Panel stride kc·16·4 bytes: R9 addresses panel 1.
	MOVQ CX, R8
	SHLQ $6, R8
	LEAQ (DI)(R8*1), R9

	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	VPXORD Z24, Z24, Z24
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27
	VPXORD Z28, Z28, Z28
	VPXORD Z29, Z29, Z29
	VPXORD Z30, Z30, Z30
	VPXORD Z31, Z31, Z31

	SUBQ $2, CX
	JLT  tail

loop:
	STEP8x32(0, 0)
	STEP8x32(32, 64)
	ADDQ $64, SI
	ADDQ $128, DI
	ADDQ $128, R9
	SUBQ $2, CX
	JGE  loop

tail:
	ADDQ $2, CX
	JZ   store
	STEP8x32(0, 0)

store:
	// Tile p occupies out[128p : 128p+128], row-major 8×16 as
	// sgemmKernel8x16 writes it.
	VMOVUPS Z16, (DX)
	VMOVUPS Z17, 64(DX)
	VMOVUPS Z18, 128(DX)
	VMOVUPS Z19, 192(DX)
	VMOVUPS Z20, 256(DX)
	VMOVUPS Z21, 320(DX)
	VMOVUPS Z22, 384(DX)
	VMOVUPS Z23, 448(DX)
	VMOVUPS Z24, 512(DX)
	VMOVUPS Z25, 576(DX)
	VMOVUPS Z26, 640(DX)
	VMOVUPS Z27, 704(DX)
	VMOVUPS Z28, 768(DX)
	VMOVUPS Z29, 832(DX)
	VMOVUPS Z30, 896(DX)
	VMOVUPS Z31, 960(DX)
	VZEROUPPER
	RET
