// AVX2 row kernels for the four IEEE arithmetic operators (see the row
// kernels in elementwise.go). Each lane computes what the scalar loop
// computes for its cell, bit for bit: one correctly rounded VADDPD, VSUBPD,
// VMULPD or VDIVPD with the scalar's operand order (the first source's NaN
// propagates, as in SUBSD / DIVSD), then one VADDPD with +0 (pz). No FMA.
// The non-zero count compares the stored value with 0 by VCMPPD predicate
// NEQ_UQ (4), true for a NaN exactly as `v != 0` is, and accumulates the
// all-ones masks by VPSUBQ, one 64-bit counter per lane.
//
// Every kernel takes op (OpAdd = 0, OpSub = 1, OpMul = 2, OpDiv = 3), the
// cell count n (a positive multiple of 4) and count, and branches on them
// once at entry into one of eight loops.
//
// Registers: DI dst, SI the vector operand of VV/VS (a), DX that of VV/SV
// (b), CX n, R8 the cell index, Y13 the broadcast scalar of VS/SV, Y14 the
// four counters, Y15 zero.

#include "textflag.h"

// Y0 = a[i:i+4] op b[i:i+4]
#define LOADVV(OP) VMOVUPD (SI)(R8*8), Y0; OP (DX)(R8*8), Y0, Y0

// Y0 = a[i:i+4] op s
#define LOADVS(OP) VMOVUPD (SI)(R8*8), Y0; OP Y13, Y0, Y0

// Y0 = s op b[i:i+4]
#define LOADSV(OP) VMOVUPD (DX)(R8*8), Y1; OP Y1, Y13, Y0

#define NOCOUNT

#define COUNT VCMPPD $4, Y15, Y0, Y1; VPSUBQ Y1, Y14, Y14

// ROWLOOP is one loop over the n cells: load and operate, pz, store, count.
#define ROWLOOP(L, LOAD, OP, TALLY) \
L: \
	LOAD(OP); \
	VADDPD  Y15, Y0, Y0; \
	VMOVUPD Y0, (DI)(R8*8); \
	TALLY; \
	ADDQ    $4, R8; \
	CMPQ    R8, CX; \
	JLT     L; \
	JMP     done

// DISPATCH branches on count (BX) and op (AX) into the eight loops of LOAD.
#define DISPATCH(LOAD) \
	XORQ   R8, R8; \
	VXORPD Y15, Y15, Y15; \
	VPXOR  Y14, Y14, Y14; \
	TESTB  BX, BX; \
	JNE    counted; \
	CMPQ   AX, $1; \
	JLT    add; \
	JEQ    sub; \
	CMPQ   AX, $2; \
	JEQ    mul; \
	ROWLOOP(div, LOAD, VDIVPD, NOCOUNT); \
	ROWLOOP(add, LOAD, VADDPD, NOCOUNT); \
	ROWLOOP(sub, LOAD, VSUBPD, NOCOUNT); \
	ROWLOOP(mul, LOAD, VMULPD, NOCOUNT); \
counted: \
	CMPQ   AX, $1; \
	JLT    addc; \
	JEQ    subc; \
	CMPQ   AX, $2; \
	JEQ    mulc; \
	ROWLOOP(divc, LOAD, VDIVPD, COUNT); \
	ROWLOOP(addc, LOAD, VADDPD, COUNT); \
	ROWLOOP(subc, LOAD, VSUBPD, COUNT); \
	ROWLOOP(mulc, LOAD, VMULPD, COUNT); \
done: \
	VEXTRACTI128 $1, Y14, X1; \
	VPADDQ       X1, X14, X14; \
	VPSHUFD      $0x4e, X14, X1; \
	VPADDQ       X1, X14, X14; \
	VMOVQ        X14, AX; \
	MOVQ         AX, nnz+48(FP); \
	VZEROUPPER; \
	RET

// func cellRowVV(op BinaryOp, dst, a, b *float64, n int, count bool) (nnz int)
TEXT ·cellRowVV(SB), NOSPLIT, $0-56
	MOVQ    op+0(FP), AX
	MOVQ    dst+8(FP), DI
	MOVQ    a+16(FP), SI
	MOVQ    b+24(FP), DX
	MOVQ    n+32(FP), CX
	MOVBQZX count+40(FP), BX
	DISPATCH(LOADVV)

// func cellRowVS(op BinaryOp, dst, a *float64, s float64, n int, count bool) (nnz int)
TEXT ·cellRowVS(SB), NOSPLIT, $0-56
	MOVQ         op+0(FP), AX
	MOVQ         dst+8(FP), DI
	MOVQ         a+16(FP), SI
	VBROADCASTSD s+24(FP), Y13
	MOVQ         n+32(FP), CX
	MOVBQZX      count+40(FP), BX
	DISPATCH(LOADVS)

// func cellRowSV(op BinaryOp, dst *float64, s float64, b *float64, n int, count bool) (nnz int)
TEXT ·cellRowSV(SB), NOSPLIT, $0-56
	MOVQ         op+0(FP), AX
	MOVQ         dst+8(FP), DI
	VBROADCASTSD s+16(FP), Y13
	MOVQ         b+24(FP), DX
	MOVQ         n+32(FP), CX
	MOVBQZX      count+40(FP), BX
	DISPATCH(LOADSV)
