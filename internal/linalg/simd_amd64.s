//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA float64 kernels for the blocked eigensolver. Operand order
// note: the Go assembler reverses Intel operand order, so
// VFMADD231PD Ys, Ym, Yd computes Yd += Ym*Ys. Every routine handles
// arbitrary lengths (vector body + scalar tail) and executes VZEROUPPER
// before returning to avoid SSE/AVX transition stalls.

// func dotF64AVX(a, b []float64) float64
// Inner product: 4×4 float64 FMA lanes (16 elements per iteration), a
// 4-lane cleanup loop, and a scalar tail kept in its own accumulator so
// the VEX.128 scalar ops cannot clobber the packed lanes.
TEXT ·dotF64AVX(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD X8, X8, X8   // scalar-tail accumulator
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX

dot_loop16:
	CMPQ AX, DX
	JGE  dot_rem4
	VMOVUPD     (SI)(AX*8), Y4
	VMOVUPD     32(SI)(AX*8), Y5
	VMOVUPD     64(SI)(AX*8), Y6
	VMOVUPD     96(SI)(AX*8), Y7
	VFMADD231PD (DI)(AX*8), Y4, Y0
	VFMADD231PD 32(DI)(AX*8), Y5, Y1
	VFMADD231PD 64(DI)(AX*8), Y6, Y2
	VFMADD231PD 96(DI)(AX*8), Y7, Y3
	ADDQ $16, AX
	JMP  dot_loop16

dot_rem4:
	MOVQ CX, DX
	ANDQ $-4, DX

dot_rem4_loop:
	CMPQ AX, DX
	JGE  dot_tail
	VMOVUPD     (SI)(AX*8), Y4
	VFMADD231PD (DI)(AX*8), Y4, Y0
	ADDQ $4, AX
	JMP  dot_rem4_loop

dot_tail:
	CMPQ AX, CX
	JGE  dot_sum
	VMOVSD      (SI)(AX*8), X4
	VFMADD231SD (DI)(AX*8), X4, X8
	INCQ AX
	JMP  dot_tail

dot_sum:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X2
	VADDPD       X2, X0, X0
	VHADDPD      X0, X0, X0
	VADDSD       X8, X0, X0
	VMOVSD       X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyF64AVX(dst, src []float64, a float64)
// dst += a*src, 4 lanes per iteration. Element-wise FMA, so the packed
// body and scalar tail produce identical bits per element.
TEXT ·axpyF64AVX(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX

axpy_loop4:
	CMPQ AX, DX
	JGE  axpy_tail
	VMOVUPD     (SI)(AX*8), Y1
	VMOVUPD     (DI)(AX*8), Y2
	VFMADD231PD Y1, Y0, Y2
	VMOVUPD     Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy_loop4

axpy_tail:
	CMPQ AX, CX
	JGE  axpy_done
	VMOVSD      (SI)(AX*8), X1
	VMOVSD      (DI)(AX*8), X2
	VFMADD231SD X1, X0, X2
	VMOVSD      X2, (DI)(AX*8)
	INCQ AX
	JMP  axpy_tail

axpy_done:
	VZEROUPPER
	RET

// func rotRows4AVX(a0, a1, a2, a3, cs, sn []float64, nrot int)
// Applies rotation sweep t = 0..nrot-1 (rotation t on positions
// (nrot-1-t, nrot-t), generation order) to four row segments in lockstep:
// lane r holds row r's running carry, and each step gathers the four
// rows' element p into one ymm, computes out = s*x + c*carry (VMULPD +
// VFMADD231PD) and carry' = c*x − s*carry (VMULPD + VFNMADD231PD), and
// scatters out to position p+1. Bitwise-matched by rotSweepRowFMA for the
// remainder rows.
TEXT ·rotRows4AVX(SB), NOSPLIT, $0-152
	MOVQ a0_base+0(FP), R8
	MOVQ a1_base+24(FP), R9
	MOVQ a2_base+48(FP), R10
	MOVQ a3_base+72(FP), R11
	MOVQ cs_base+96(FP), SI
	MOVQ sn_base+120(FP), DI
	MOVQ nrot+144(FP), CX

	// carry = [a0[nrot], a1[nrot], a2[nrot], a3[nrot]]
	VMOVSD      (R8)(CX*8), X4
	VMOVHPD     (R9)(CX*8), X4, X4
	VMOVSD      (R10)(CX*8), X5
	VMOVHPD     (R11)(CX*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	XORQ        AX, AX

rot_loop:
	CMPQ AX, CX
	JGE  rot_done
	MOVQ CX, DX
	SUBQ AX, DX
	DECQ DX                       // p = nrot-1-t
	VBROADCASTSD (SI)(AX*8), Y0   // c
	VBROADCASTSD (DI)(AX*8), Y1   // s

	// x = [a0[p], a1[p], a2[p], a3[p]]
	VMOVSD      (R8)(DX*8), X2
	VMOVHPD     (R9)(DX*8), X2, X2
	VMOVSD      (R10)(DX*8), X3
	VMOVHPD     (R11)(DX*8), X3, X3
	VINSERTF128 $1, X3, Y2, Y2

	VMULPD      Y4, Y0, Y5        // c*carry
	VFMADD231PD Y2, Y1, Y5        // + s*x
	VMULPD      Y2, Y0, Y6        // c*x
	VFNMADD231PD Y4, Y1, Y6       // − s*carry
	VMOVAPD     Y6, Y4

	// rows[p+1] = out
	VMOVSD       X5, 8(R8)(DX*8)
	VMOVHPD      X5, 8(R9)(DX*8)
	VEXTRACTF128 $1, Y5, X7
	VMOVSD       X7, 8(R10)(DX*8)
	VMOVHPD      X7, 8(R11)(DX*8)

	INCQ AX
	JMP  rot_loop

rot_done:
	// rows[0] = carry
	VMOVSD       X4, (R8)
	VMOVHPD      X4, (R9)
	VEXTRACTF128 $1, Y4, X7
	VMOVSD       X7, (R10)
	VMOVHPD      X7, (R11)
	VZEROUPPER
	RET
