//go:build !purego

#include "textflag.h"

// A 32-byte vector of -2.0 for the second differences' -2*u.
DATA negtwo<>+0(SB)/8, $-2.0
DATA negtwo<>+8(SB)/8, $-2.0
DATA negtwo<>+16(SB)/8, $-2.0
DATA negtwo<>+24(SB)/8, $-2.0
GLOBL negtwo<>(SB), RODATA|NOPTR, $32

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func stencilTileAVX2(o, c, px, py, pz *float64, n, ny, nz, ys, zs, oys, ozs int, k *stencilConsts)
//
// Per lane, stencilRowGo's operations in its order, sums left to right:
// A = (px*(xm-u))*rdx + ..., D = ((-2u+xm)+xp)*rdx2 + ..., o = u + dt*(A +
// nu*D). VSUBPD a, b, d computes d = b - a. Swapping the operands of one
// add or multiply changes no result's bits, only a NaN's payload.
//
// Registers: Y8-Y15 the constants, Y7 the plane's pz, Y6 the row's py;
// SI the row's first cell, R9/R10 the rows at -ys/+ys, R11/R12 at -zs/+zs,
// DI the output row, R8 px, DX the row's py, AX ys and R14 oys in bytes,
// BX n, CX the cell index, R13 the rows left in the plane. R15 is never
// touched: dynamic linking clobbers it.
TEXT ·stencilTileAVX2(SB), NOSPLIT, $32-104
	MOVQ k+96(FP), AX
	VBROADCASTSD 0(AX), Y8   // rdx
	VBROADCASTSD 8(AX), Y9   // rdy
	VBROADCASTSD 16(AX), Y10 // rdz
	VBROADCASTSD 24(AX), Y11 // rdx2
	VBROADCASTSD 32(AX), Y12 // rdy2
	VBROADCASTSD 40(AX), Y13 // rdz2
	VBROADCASTSD 48(AX), Y14 // nu
	VBROADCASTSD 56(AX), Y15 // dt

	// The frame holds the plane loop's state: the next pz, the planes
	// left, and the skips (zs - ny*ys and ozs - ny*oys, in bytes) from the
	// end of one plane's rows to the next plane's first row.
	MOVQ pz+32(FP), AX
	MOVQ AX, pzp-8(SP)
	MOVQ nz+56(FP), AX
	MOVQ AX, planes-16(SP)
	MOVQ ys+64(FP), AX
	SHLQ $3, AX
	MOVQ oys+80(FP), R14
	SHLQ $3, R14
	MOVQ ny+48(FP), DX
	IMULQ AX, DX
	MOVQ zs+72(FP), CX
	SHLQ $3, CX
	SUBQ DX, CX
	MOVQ CX, skip-24(SP)
	MOVQ ny+48(FP), DX
	IMULQ R14, DX
	MOVQ ozs+88(FP), CX
	SHLQ $3, CX
	SUBQ DX, CX
	MOVQ CX, oskip-32(SP)

	MOVQ o+0(FP), DI
	MOVQ c+8(FP), SI
	MOVQ px+16(FP), R8
	MOVQ n+40(FP), BX
	MOVQ zs+72(FP), R11
	SHLQ $3, R11
	LEAQ (SI)(R11*1), R12
	NEGQ R11
	ADDQ SI, R11
	LEAQ (SI)(AX*1), R10
	MOVQ SI, R9
	SUBQ AX, R9

plane:
	MOVQ pzp-8(SP), CX
	VBROADCASTSD (CX), Y7
	MOVQ py+24(FP), DX
	MOVQ ny+48(FP), R13

row:
	VBROADCASTSD (DX), Y6
	XORQ CX, CX

loop:
	VMOVUPD (SI)(CX*8), Y0          // u
	VMULPD  negtwo<>(SB), Y0, Y1    // -2u

	// x
	VMOVUPD -8(SI)(CX*8), Y4        // xm
	VSUBPD  Y0, Y4, Y5              // xm-u
	VMULPD  (R8)(CX*8), Y5, Y5      // px*(xm-u)
	VMULPD  Y8, Y5, Y2              // A = ...*rdx
	VADDPD  Y4, Y1, Y3              // -2u+xm
	VADDPD  8(SI)(CX*8), Y3, Y3     // +xp
	VMULPD  Y11, Y3, Y3             // D = ...*rdx2

	// y
	VMOVUPD (R9)(CX*8), Y4          // ym
	VSUBPD  Y0, Y4, Y5
	VMULPD  Y6, Y5, Y5
	VMULPD  Y9, Y5, Y5
	VADDPD  Y5, Y2, Y2              // A += uDudy
	VADDPD  Y4, Y1, Y5
	VADDPD  (R10)(CX*8), Y5, Y5
	VMULPD  Y12, Y5, Y5
	VADDPD  Y5, Y3, Y3              // D += d2udy2

	// z
	VMOVUPD (R11)(CX*8), Y4         // zm
	VSUBPD  Y0, Y4, Y5
	VMULPD  Y7, Y5, Y5
	VMULPD  Y10, Y5, Y5
	VADDPD  Y5, Y2, Y2              // A += uDudz
	VADDPD  Y4, Y1, Y5
	VADDPD  (R12)(CX*8), Y5, Y5
	VMULPD  Y13, Y5, Y5
	VADDPD  Y5, Y3, Y3              // D += d2udz2

	VMULPD  Y14, Y3, Y3             // nu*D
	VADDPD  Y3, Y2, Y2              // du = A + nu*D
	VMULPD  Y15, Y2, Y2             // dt*du
	VADDPD  Y2, Y0, Y0              // u + dt*du
	VMOVUPD Y0, (DI)(CX*8)

	ADDQ $4, CX
	CMPQ CX, BX
	JLT  loop

	// Next row.
	ADDQ AX, SI
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ AX, R12
	ADDQ R14, DI
	ADDQ $8, DX
	DECQ R13
	JNZ  row

	// Next plane.
	MOVQ skip-24(SP), CX
	ADDQ CX, SI
	ADDQ CX, R9
	ADDQ CX, R10
	ADDQ CX, R11
	ADDQ CX, R12
	ADDQ oskip-32(SP), DI
	ADDQ $8, pzp-8(SP)
	DECQ planes-16(SP)
	JNZ  plane

	VZEROUPPER
	RET
