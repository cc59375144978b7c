//go:build amd64 && !purego

#include "textflag.h"

// Float64 GEMM kernels: register tiles behind MatMulInto, MatMulT1Into,
// MatMulT2Into and GramInto (loop nests in gemm_amd64.go). They multiply with
// VMULPD and add with VADDPD, never VFMADD: every product and every sum is
// rounded exactly as in the scalar Go kernels of matmul.go, so results are
// bit-identical to them for finite inputs. Each routine executes
// VZEROUPPER before returning to avoid SSE/AVX transition stalls.

// gemmMask<> holds eight all-ones qwords followed by eight zero qwords.
// Eight qwords read from byte offset 64 − 8r are the lane mask of an
// r-column edge tile (r = 1..7).
DATA gemmMask<>+0(SB)/8, $-1
DATA gemmMask<>+8(SB)/8, $-1
DATA gemmMask<>+16(SB)/8, $-1
DATA gemmMask<>+24(SB)/8, $-1
DATA gemmMask<>+32(SB)/8, $-1
DATA gemmMask<>+40(SB)/8, $-1
DATA gemmMask<>+48(SB)/8, $-1
DATA gemmMask<>+56(SB)/8, $-1
DATA gemmMask<>+64(SB)/8, $0
DATA gemmMask<>+72(SB)/8, $0
DATA gemmMask<>+80(SB)/8, $0
DATA gemmMask<>+88(SB)/8, $0
DATA gemmMask<>+96(SB)/8, $0
DATA gemmMask<>+104(SB)/8, $0
DATA gemmMask<>+112(SB)/8, $0
DATA gemmMask<>+120(SB)/8, $0
GLOBL gemmMask<>(SB), RODATA|NOPTR, $128

// GEMM_ROW adds one row's products A(r,kk)·B(kk, j..j+7) into its two
// accumulators; Y8/Y9 hold the B row segment and SI points at the packed
// A column (A(0..3, kk)).
#define GEMM_ROW(off, acc0, acc1) \
	VBROADCASTSD off(SI), Y10;    \
	VMULPD       Y8, Y10, Y11;    \
	VADDPD       Y11, acc0, acc0; \
	VMULPD       Y9, Y10, Y11;    \
	VADDPD       Y11, acc1, acc1

#define GEMM_STEP \
	GEMM_ROW(0, Y0, Y1);  \
	GEMM_ROW(8, Y2, Y3);  \
	GEMM_ROW(16, Y4, Y5); \
	GEMM_ROW(24, Y6, Y7); \
	ADDQ $32, SI;         \
	ADDQ DX, BX

#define LOADC(cptr, acc0, acc1) \
	MOVQ    cptr(FP), DI;          \
	VMOVUPD (DI)(AX*8), acc0;      \
	VMOVUPD 32(DI)(AX*8), acc1

#define STOREC(cptr, acc0, acc1) \
	MOVQ    cptr(FP), DI;          \
	VMOVUPD acc0, (DI)(AX*8);      \
	VMOVUPD acc1, 32(DI)(AX*8)

#define LOADCM(cptr, acc0, acc1) \
	MOVQ       cptr(FP), DI;          \
	VMASKMOVPD (DI)(AX*8), Y12, acc0; \
	VMASKMOVPD 32(DI)(AX*8), Y13, acc1

#define STORECM(cptr, acc0, acc1) \
	MOVQ       cptr(FP), DI;          \
	VMASKMOVPD acc0, Y12, (DI)(AX*8); \
	VMASKMOVPD acc1, Y13, 32(DI)(AX*8)

#define ZEROACC \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// func gemmTile4AVX(c0, c1, c2, c3, a, b *float64, ldb, k, n int, load bool)
// For rows r = 0..3: C_r[j] (+)= Σ_{kk<k} a[4kk+r]·B[kk·ldb + j], j < n,
// in 4×8 register tiles with the k terms of every element added in
// ascending order. a is the packed A panel, four values per k. With load
// set the sums start from C's values, else from +0 and C is only
// written. k ≥ 1, n ≥ 1. The last tile covers the n mod 8 leftover
// columns with masked loads and stores.
TEXT ·gemmTile4AVX(SB), NOSPLIT, $0-73
	MOVQ   ldb+48(FP), DX
	SHLQ   $3, DX
	MOVQ   n+64(FP), R13
	MOVBQZX load+72(FP), R9
	XORQ   AX, AX

gemm_tile:
	MOVQ R13, CX
	SUBQ AX, CX
	JLE  gemm_done
	CMPQ CX, $8
	JL   gemm_edge
	ZEROACC
	TESTQ R9, R9
	JZ    gemm_start
	LOADC(c0+0, Y0, Y1)
	LOADC(c1+8, Y2, Y3)
	LOADC(c2+16, Y4, Y5)
	LOADC(c3+24, Y6, Y7)

gemm_start:
	MOVQ a+32(FP), SI
	MOVQ b+40(FP), BX
	LEAQ (BX)(AX*8), BX
	MOVQ k+56(FP), CX

gemm_k:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	GEMM_STEP
	DECQ CX
	JNZ  gemm_k
	STOREC(c0+0, Y0, Y1)
	STOREC(c1+8, Y2, Y3)
	STOREC(c2+16, Y4, Y5)
	STOREC(c3+24, Y6, Y7)
	ADDQ $8, AX
	JMP  gemm_tile

gemm_edge:
	LEAQ    gemmMask<>(SB), DI
	NEGQ    CX
	VMOVDQU 64(DI)(CX*8), Y12
	VMOVDQU 96(DI)(CX*8), Y13
	ZEROACC
	TESTQ   R9, R9
	JZ      gemm_edge_start
	LOADCM(c0+0, Y0, Y1)
	LOADCM(c1+8, Y2, Y3)
	LOADCM(c2+16, Y4, Y5)
	LOADCM(c3+24, Y6, Y7)

gemm_edge_start:
	MOVQ a+32(FP), SI
	MOVQ b+40(FP), BX
	LEAQ (BX)(AX*8), BX
	MOVQ k+56(FP), CX

gemm_k_edge:
	VMASKMOVPD (BX), Y12, Y8
	VMASKMOVPD 32(BX), Y13, Y9
	GEMM_STEP
	DECQ CX
	JNZ  gemm_k_edge
	STORECM(c0+0, Y0, Y1)
	STORECM(c1+8, Y2, Y3)
	STORECM(c2+16, Y4, Y5)
	STORECM(c3+24, Y6, Y7)

gemm_done:
	VZEROUPPER
	RET

// DOT_COL adds the products of the two A rows (Y8, Y9) with one B row
// segment (Y10) into that column's two accumulators.
#define DOT_COL(acc0, acc1) \
	VMULPD Y10, Y8, Y11;    \
	VADDPD Y11, acc0, acc0; \
	VMULPD Y10, Y9, Y11;    \
	VADDPD Y11, acc1, acc1

// func dotTileAVX(out *[8][4]float64, a0, a1, b0, b1, b2, b3 *float64, k int)
// The 2×4 dot products a_r·b_c over k elements, each laid out like
// dotUnroll: lane l of out[4r+c] sums the products of elements 4t+l in
// ascending t, and the k mod 4 tail products go into lane 0 in order. A
// tail step adds +0 to lanes 1–3, which leaves them unchanged: a lane sum
// starts at +0 and so is never −0. The caller reduces each out row as
// ((s0+s1)+s2)+s3.
TEXT ·dotTileAVX(SB), NOSPLIT, $0-64
	MOVQ   a0+8(FP), R8
	MOVQ   a1+16(FP), R9
	MOVQ   b0+24(FP), R10
	MOVQ   b1+32(FP), R11
	MOVQ   b2+40(FP), R12
	MOVQ   b3+48(FP), R13
	MOVQ   k+56(FP), CX
	SHLQ   $3, CX
	MOVQ   CX, DX
	ANDQ   $-32, DX
	ZEROACC
	XORQ   AX, AX

dot_loop4:
	CMPQ    AX, DX
	JGE     dot_tail
	VMOVUPD (R8)(AX*1), Y8
	VMOVUPD (R9)(AX*1), Y9
	VMOVUPD (R10)(AX*1), Y10
	DOT_COL(Y0, Y4)
	VMOVUPD (R11)(AX*1), Y10
	DOT_COL(Y1, Y5)
	VMOVUPD (R12)(AX*1), Y10
	DOT_COL(Y2, Y6)
	VMOVUPD (R13)(AX*1), Y10
	DOT_COL(Y3, Y7)
	ADDQ    $32, AX
	JMP     dot_loop4

dot_tail:
	// VMOVSD loads zero lanes 1–3, so these steps only change lane 0.
	CMPQ   AX, CX
	JGE    dot_store
	VMOVSD (R8)(AX*1), X8
	VMOVSD (R9)(AX*1), X9
	VMOVSD (R10)(AX*1), X10
	DOT_COL(Y0, Y4)
	VMOVSD (R11)(AX*1), X10
	DOT_COL(Y1, Y5)
	VMOVSD (R12)(AX*1), X10
	DOT_COL(Y2, Y6)
	VMOVSD (R13)(AX*1), X10
	DOT_COL(Y3, Y7)
	ADDQ   $8, AX
	JMP    dot_tail

dot_store:
	MOVQ    out+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
