//go:build amd64 && !noasm

#include "textflag.h"

// func cpuSupportsAVX2FMA() bool
TEXT ·cpuSupportsAVX2FMA(SB), NOSPLIT, $0-1
	// CPUID leaf 0: highest supported leaf must reach 7.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT none

	// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<12 | 1<<27 | 1<<28), CX
	CMPL CX, $(1<<12 | 1<<27 | 1<<28)
	JNE  none

	// XCR0: the OS must preserve XMM (bit 1) and YMM (bit 2) state.
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    none

	// Leaf 7 subleaf 0 EBX: AVX2 (bit 5).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   none

	MOVB $1, ret+0(FP)
	RET

none:
	MOVB $0, ret+0(FP)
	RET

// func dgemmKernel4x8(kc int, ap, bp, out *float64)
//
// 4×8 C tile in eight YMM accumulators: Y(2i) holds row i columns 0..3,
// Y(2i+1) row i columns 4..7. Each k step loads one 8-wide B lane (two
// packed loads), broadcasts the four A values and issues eight
// VFMADD231PD, all streaming unit-stride from the packed buffers. The
// k-loop is 2-way unrolled; an odd kc runs one scalar tail step.
TEXT ·dgemmKernel4x8(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ out+24(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	SUBQ $2, CX
	JLT  tail

loop:
	// k step 0
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD 8(SI), Y11
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 16(SI), Y12
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 24(SI), Y13
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7

	// k step 1
	VMOVUPD      64(DI), Y8
	VMOVUPD      96(DI), Y9
	VBROADCASTSD 32(SI), Y10
	VBROADCASTSD 40(SI), Y11
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 48(SI), Y12
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 56(SI), Y13
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7

	ADDQ $64, SI
	ADDQ $128, DI
	SUBQ $2, CX
	JGE  loop

tail:
	ADDQ $2, CX
	JZ   store

	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD 8(SI), Y11
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 16(SI), Y12
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 24(SI), Y13
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// One k step of dgemmKernel4x8s: B lane boff(DI), the four A values of
// step l at SI, SI+rsA, SI+2·rsA, SI+3·rsA (R8, R10, R11), then SI moves
// on by csA (R9). Accumulators and FMA order are dgemmKernel4x8's.
#define STRIDED_STEP(boff) \
	VMOVUPD      boff(DI), Y8; \
	VMOVUPD      boff+32(DI), Y9; \
	VBROADCASTSD (SI), Y10; \
	VBROADCASTSD (SI)(R8*1), Y11; \
	VFMADD231PD  Y8, Y10, Y0; \
	VFMADD231PD  Y9, Y10, Y1; \
	VBROADCASTSD (SI)(R10*1), Y12; \
	VFMADD231PD  Y8, Y11, Y2; \
	VFMADD231PD  Y9, Y11, Y3; \
	VBROADCASTSD (SI)(R11*1), Y13; \
	VFMADD231PD  Y8, Y12, Y4; \
	VFMADD231PD  Y9, Y12, Y5; \
	VFMADD231PD  Y8, Y13, Y6; \
	VFMADD231PD  Y9, Y13, Y7; \
	ADDQ         R9, SI

// func dgemmKernel4x8s(kc int, a *float64, rsA, csA int, bp, out *float64)
//
// dgemmKernel4x8 with op(A) read in place at byte strides rsA (rows) and
// csA (k steps) instead of from a packed sliver. The k-loop is 2-way
// unrolled; an odd kc runs one tail step.
TEXT ·dgemmKernel4x8s(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ rsA+16(FP), R8
	MOVQ csA+24(FP), R9
	MOVQ bp+32(FP), DI
	MOVQ out+40(FP), DX
	LEAQ (R8)(R8*1), R10
	LEAQ (R10)(R8*1), R11

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	SUBQ $2, CX
	JLT  tail

loop:
	STRIDED_STEP(0)
	STRIDED_STEP(64)
	ADDQ $128, DI
	SUBQ $2, CX
	JGE  loop

tail:
	ADDQ $2, CX
	JZ   store
	STRIDED_STEP(0)

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET
