// Vector GEMM micro-kernels of the 8x8 register tile (see gemm.go). Both
// vectorize ACROSS the output columns of one tile row: each accumulator lane
// is one output cell, updated with VMULPD (round the product) followed by
// VADDPD (round the sum), k ascending — exactly the mul-then-add rounding
// sequence of the scalar kernel. The product takes the broadcast A value as
// its first operand and the sum the accumulator, so a product of two NaNs
// keeps A's payload and a sum of two NaNs the accumulator's: the rule the
// scalar kernel pins (gemmNaNCell). FMA is deliberately NOT used: fusing
// would skip the intermediate rounding and break the bitwise
// accumulation-order contract shared with the simple blocked kernel.
//
// Both kernels take
//
//	ap:  packed A micro-panel, gemmMR (8) values per k step, k-major
//	bp:  packed B micro-panel, gemmNR (8) values per k step, k-major
//	kc:  the number of k steps
//	c:   top-left cell of the 8x8 output tile
//	ldb: row stride of c in BYTES

#include "textflag.h"

// func gemm8x8AVX512Asm(ap, bp *float64, kc int, c *float64, ldb int)
//
// Eight ZMM accumulators Z0-Z7, one per tile row; one pass over k, two k
// steps per loop trip (B rows in Z8 / Z17, broadcasts in Z9-Z16 / Z18-Z25).
TEXT ·gemm8x8AVX512Asm(SB), NOSPLIT, $0-40
	MOVQ ap+0(FP), AX
	MOVQ bp+8(FP), BX
	MOVQ kc+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldb+32(FP), SI
	LEAQ (SI)(SI*2), R9 // 3 rows
	LEAQ (DX)(SI*4), DI // row 4 base

	VMOVUPD (DX), Z0
	VMOVUPD (DX)(SI*1), Z1
	VMOVUPD (DX)(SI*2), Z2
	VMOVUPD (DX)(R9*1), Z3
	VMOVUPD (DI), Z4
	VMOVUPD (DI)(SI*1), Z5
	VMOVUPD (DI)(SI*2), Z6
	VMOVUPD (DI)(R9*1), Z7

	TESTQ CX, CX
	JEQ   store512
	MOVQ  CX, R8
	SHRQ  $1, R8 // R8 = kc/2 (paired k steps)
	TESTQ R8, R8
	JEQ   tail512

loop512:
	// k step 0
	VMOVUPD      (BX), Z8
	VBROADCASTSD (AX), Z9
	VBROADCASTSD 8(AX), Z10
	VBROADCASTSD 16(AX), Z11
	VBROADCASTSD 24(AX), Z12
	VBROADCASTSD 32(AX), Z13
	VBROADCASTSD 40(AX), Z14
	VBROADCASTSD 48(AX), Z15
	VBROADCASTSD 56(AX), Z16
	VMULPD       Z8, Z9, Z9
	VADDPD       Z9, Z0, Z0
	VMULPD       Z8, Z10, Z10
	VADDPD       Z10, Z1, Z1
	VMULPD       Z8, Z11, Z11
	VADDPD       Z11, Z2, Z2
	VMULPD       Z8, Z12, Z12
	VADDPD       Z12, Z3, Z3
	VMULPD       Z8, Z13, Z13
	VADDPD       Z13, Z4, Z4
	VMULPD       Z8, Z14, Z14
	VADDPD       Z14, Z5, Z5
	VMULPD       Z8, Z15, Z15
	VADDPD       Z15, Z6, Z6
	VMULPD       Z8, Z16, Z16
	VADDPD       Z16, Z7, Z7

	// k step 1
	VMOVUPD      64(BX), Z17
	VBROADCASTSD 64(AX), Z18
	VBROADCASTSD 72(AX), Z19
	VBROADCASTSD 80(AX), Z20
	VBROADCASTSD 88(AX), Z21
	VBROADCASTSD 96(AX), Z22
	VBROADCASTSD 104(AX), Z23
	VBROADCASTSD 112(AX), Z24
	VBROADCASTSD 120(AX), Z25
	VMULPD       Z17, Z18, Z18
	VADDPD       Z18, Z0, Z0
	VMULPD       Z17, Z19, Z19
	VADDPD       Z19, Z1, Z1
	VMULPD       Z17, Z20, Z20
	VADDPD       Z20, Z2, Z2
	VMULPD       Z17, Z21, Z21
	VADDPD       Z21, Z3, Z3
	VMULPD       Z17, Z22, Z22
	VADDPD       Z22, Z4, Z4
	VMULPD       Z17, Z23, Z23
	VADDPD       Z23, Z5, Z5
	VMULPD       Z17, Z24, Z24
	VADDPD       Z24, Z6, Z6
	VMULPD       Z17, Z25, Z25
	VADDPD       Z25, Z7, Z7

	ADDQ $128, AX
	ADDQ $128, BX
	DECQ R8
	JNE  loop512

	ANDQ $1, CX
	JEQ  store512

tail512:
	VMOVUPD      (BX), Z8
	VBROADCASTSD (AX), Z9
	VBROADCASTSD 8(AX), Z10
	VBROADCASTSD 16(AX), Z11
	VBROADCASTSD 24(AX), Z12
	VBROADCASTSD 32(AX), Z13
	VBROADCASTSD 40(AX), Z14
	VBROADCASTSD 48(AX), Z15
	VBROADCASTSD 56(AX), Z16
	VMULPD       Z8, Z9, Z9
	VADDPD       Z9, Z0, Z0
	VMULPD       Z8, Z10, Z10
	VADDPD       Z10, Z1, Z1
	VMULPD       Z8, Z11, Z11
	VADDPD       Z11, Z2, Z2
	VMULPD       Z8, Z12, Z12
	VADDPD       Z12, Z3, Z3
	VMULPD       Z8, Z13, Z13
	VADDPD       Z13, Z4, Z4
	VMULPD       Z8, Z14, Z14
	VADDPD       Z14, Z5, Z5
	VMULPD       Z8, Z15, Z15
	VADDPD       Z15, Z6, Z6
	VMULPD       Z8, Z16, Z16
	VADDPD       Z16, Z7, Z7

store512:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, (DX)(SI*1)
	VMOVUPD Z2, (DX)(SI*2)
	VMOVUPD Z3, (DX)(R9*1)
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, (DI)(SI*1)
	VMOVUPD Z6, (DI)(SI*2)
	VMOVUPD Z7, (DI)(R9*1)
	VZEROUPPER
	RET

// func gemm8x8AVX2Asm(ap, bp *float64, kc int, c *float64, ldb int)
//
// The tile as two 8x4 halves, columns [0, 4) then [4, 8): eight YMM
// accumulators Y0-Y7, one per tile row, the half's four B values in Y8 and
// the broadcasts in Y9-Y15 (row 7 reuses Y9). Each half is one pass over k.
TEXT ·gemm8x8AVX2Asm(SB), NOSPLIT, $0-40
	MOVQ ap+0(FP), R10
	MOVQ bp+8(FP), R11
	MOVQ c+24(FP), DX
	MOVQ ldb+32(FP), SI
	LEAQ (SI)(SI*2), R9 // 3 rows
	MOVQ $2, R12        // halves left

half:
	MOVQ kc+16(FP), CX
	MOVQ R10, AX
	MOVQ R11, BX
	LEAQ (DX)(SI*4), DI // row 4 base

	VMOVUPD (DX), Y0
	VMOVUPD (DX)(SI*1), Y1
	VMOVUPD (DX)(SI*2), Y2
	VMOVUPD (DX)(R9*1), Y3
	VMOVUPD (DI), Y4
	VMOVUPD (DI)(SI*1), Y5
	VMOVUPD (DI)(SI*2), Y6
	VMOVUPD (DI)(R9*1), Y7

	TESTQ CX, CX
	JEQ   store256

loop256:
	VMOVUPD      (BX), Y8
	VBROADCASTSD (AX), Y9
	VBROADCASTSD 8(AX), Y10
	VBROADCASTSD 16(AX), Y11
	VBROADCASTSD 24(AX), Y12
	VBROADCASTSD 32(AX), Y13
	VBROADCASTSD 40(AX), Y14
	VBROADCASTSD 48(AX), Y15
	VMULPD       Y8, Y9, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       Y8, Y10, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       Y8, Y11, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y8, Y12, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD 56(AX), Y9
	VMULPD       Y8, Y13, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       Y8, Y14, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       Y8, Y15, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       Y8, Y9, Y9
	VADDPD       Y9, Y7, Y7

	ADDQ $64, AX
	ADDQ $64, BX
	DECQ CX
	JNE  loop256

store256:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(SI*1)
	VMOVUPD Y2, (DX)(SI*2)
	VMOVUPD Y3, (DX)(R9*1)
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(SI*1)
	VMOVUPD Y6, (DI)(SI*2)
	VMOVUPD Y7, (DI)(R9*1)

	// the right half: columns 4-7 of the tile and of every B row
	ADDQ $32, R11
	ADDQ $32, DX
	DECQ R12
	JNE  half
	VZEROUPPER
	RET

// func x86VectorLevel() vectorLevel
//
// vecAVX2 iff: max CPUID leaf >= 7, CPUID.1:ECX has OSXSAVE|AVX, XCR0
// enables XMM+YMM state and CPUID.7.0:EBX has AVX2. vecAVX512 iff moreover
// CPUID.7.0:EBX has AVX512F and XCR0 enables the opmask, ZMM_Hi256 and
// Hi16_ZMM state (bits 5-7). Otherwise vecScalar.
TEXT ·x86VectorLevel(SB), NOSPLIT, $0-8
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JCS  none
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  none
	XORL CX, CX
	XGETBV
	MOVL AX, R8 // XCR0
	ANDL $6, AX
	CMPL AX, $6
	JNE  none
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JEQ   none
	TESTL $0x10000, BX
	JEQ   avx2
	ANDL  $0xe6, R8
	CMPL  R8, $0xe6
	JNE   avx2
	MOVQ  $2, ret+0(FP)
	RET

avx2:
	MOVQ $1, ret+0(FP)
	RET

none:
	MOVQ $0, ret+0(FP)
	RET
