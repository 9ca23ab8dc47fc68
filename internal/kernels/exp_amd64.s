//go:build amd64 && !noasm

#include "textflag.h"

// Scalars broadcast into registers once per call: the sign mask, the
// vector range bound, the reduction constants, 2 and the four highest
// Taylor coefficients, and 1.
DATA expscal<>+0(SB)/8, $0x8000000000000000
DATA expscal<>+8(SB)/8, $708.0
DATA expscal<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA expscal<>+24(SB)/8, $0.69314718055966295651160180568695068359375
DATA expscal<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expscal<>+40(SB)/8, $0.0625
DATA expscal<>+48(SB)/8, $2.0
DATA expscal<>+56(SB)/8, $2.4801587301587301587e-5
DATA expscal<>+64(SB)/8, $1.9841269841269841270e-4
DATA expscal<>+72(SB)/8, $1.3888888888888888889e-3
DATA expscal<>+80(SB)/8, $8.3333333333333333333e-3
DATA expscal<>+88(SB)/8, $1.0
GLOBL expscal<>(SB), RODATA|NOPTR, $96

// Four-lane constants the sixteen YMM registers have no room for, read as
// memory operands: Taylor coefficients 1/24, 1/6 and 1/2, and the exponent
// bias 1023 as four int32.
DATA expvec<>+0(SB)/8, $4.1666666666666666667e-2
DATA expvec<>+8(SB)/8, $4.1666666666666666667e-2
DATA expvec<>+16(SB)/8, $4.1666666666666666667e-2
DATA expvec<>+24(SB)/8, $4.1666666666666666667e-2
DATA expvec<>+32(SB)/8, $1.6666666666666666667e-1
DATA expvec<>+40(SB)/8, $1.6666666666666666667e-1
DATA expvec<>+48(SB)/8, $1.6666666666666666667e-1
DATA expvec<>+56(SB)/8, $1.6666666666666666667e-1
DATA expvec<>+64(SB)/8, $0.5
DATA expvec<>+72(SB)/8, $0.5
DATA expvec<>+80(SB)/8, $0.5
DATA expvec<>+88(SB)/8, $0.5
DATA expvec<>+96(SB)/4, $1023
DATA expvec<>+100(SB)/4, $1023
DATA expvec<>+104(SB)/4, $1023
DATA expvec<>+108(SB)/4, $1023
GLOBL expvec<>(SB), RODATA|NOPTR, $112

// SIGMOID_SETUP loads the register constants of SIGMOID4.
#define SIGMOID_SETUP \
	VBROADCASTSD expscal<>+0(SB), Y14; \
	VBROADCASTSD expscal<>+8(SB), Y13; \
	VBROADCASTSD expscal<>+16(SB), Y12; \
	VBROADCASTSD expscal<>+24(SB), Y11; \
	VBROADCASTSD expscal<>+32(SB), Y10; \
	VBROADCASTSD expscal<>+40(SB), Y9; \
	VBROADCASTSD expscal<>+48(SB), Y8; \
	VBROADCASTSD expscal<>+56(SB), Y7; \
	VBROADCASTSD expscal<>+64(SB), Y6; \
	VBROADCASTSD expscal<>+72(SB), Y5; \
	VBROADCASTSD expscal<>+80(SB), Y4; \
	VBROADCASTSD expscal<>+88(SB), Y15

// RANGE4 sets BX to 15 when every lane of Y0 lies in (−708, 708), where
// EXP4 needs none of the scalar code's special cases, and to less when
// some lane does not or is NaN (an ordered compare is false on NaN).
#define RANGE4 \
	VANDNPD   Y0, Y14, Y1; \
	VCMPPD    $0x11, Y13, Y1, Y1; \
	VMOVMSKPD Y1, BX

// EXP4 replaces the four lanes of Y0 by e^Y0, with the operations of Exp
// in the same order and the same roundings: k = round-even(x·log2 e) in
// X2 (VCVTPD2DQ), x −= k·LN2U and x −= k·LN2L as fused negated
// multiply-adds, x /= 16, the FMA Horner chain c8 … c3, 1/2, 1, then x·p,
// three rounds of x·(x+2) and FMA(x+2, x, 1), and the scale by 2^k built
// from the biased exponent (k+1023)<<52. Clobbers Y1 and Y2.
#define EXP4 \
	VMULPD       Y12, Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD Y11, Y1, Y0; \
	VFNMADD231PD Y10, Y1, Y0; \
	VMULPD       Y9, Y0, Y0; \
	VMOVAPD      Y7, Y1; \
	VFMADD213PD  Y6, Y0, Y1; \
	VFMADD213PD  Y5, Y0, Y1; \
	VFMADD213PD  Y4, Y0, Y1; \
	VFMADD213PD  expvec<>+0(SB), Y0, Y1; \
	VFMADD213PD  expvec<>+32(SB), Y0, Y1; \
	VFMADD213PD  expvec<>+64(SB), Y0, Y1; \
	VFMADD213PD  Y15, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       Y8, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       Y8, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       Y8, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       Y8, Y0, Y1; \
	VFMADD213PD  Y15, Y1, Y0; \
	VPADDD       expvec<>+96(SB), X2, X2; \
	VPMOVSXDQ    X2, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VMULPD       Y2, Y0, Y0

// SIGMOID4 replaces the four lanes of Y0 by 1/(1+e^(−Y0)), or leaves
// them and jumps to done when RANGE4 rejects the block.
#define SIGMOID4 \
	VXORPD    Y14, Y0, Y0; \
	RANGE4; \
	CMPQ      BX, $15; \
	JNE       done; \
	EXP4; \
	VADDPD    Y15, Y0, Y0; \
	VDIVPD    Y0, Y15, Y0

// func sigmoid64(dst, src []float64) int
//
// Runs SIGMOID4 over the 4-lane blocks of src from the start and returns
// how many elements it wrote: it stops before the first block RANGE4
// rejects or when fewer than four elements remain.
TEXT ·sigmoid64(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
	SUBQ $4, CX
	JLT  done
	SIGMOID_SETUP

loop:
	VMOVUPD (SI)(AX*8), Y0
	SIGMOID4
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLE     loop

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func sigmoid32(dst, src []float32) int
//
// sigmoid64 on float32 data: each block widens exactly (VCVTPS2PD) and
// rounds back once (VCVTPD2PS, round-to-nearest-even like float32()).
TEXT ·sigmoid32(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
	SUBQ $4, CX
	JLT  done
	SIGMOID_SETUP

loop:
	VCVTPS2PD  (SI)(AX*4), Y0
	SIGMOID4
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX
	CMPQ       AX, CX
	JLE        loop

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET
