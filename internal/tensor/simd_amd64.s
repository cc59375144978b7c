//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA float32 kernels. Operand order note: the Go assembler reverses
// Intel operand order, so VFMADD231PS Ys, Ym, Yd computes Yd += Ym*Ys.
// Every routine handles arbitrary lengths (vector body + scalar tail) and
// executes VZEROUPPER before returning to avoid SSE/AVX transition stalls.

// func axpy32AVX(dst, src []float32, a float32)
// dst += a*src, 8 lanes per iteration.
TEXT ·axpy32AVX(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSS a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

axpy_loop8:
	CMPQ AX, DX
	JGE  axpy_tail
	VMOVUPS     (SI)(AX*4), Y1
	VMOVUPS     (DI)(AX*4), Y2
	VFMADD231PS Y1, Y0, Y2
	VMOVUPS     Y2, (DI)(AX*4)
	ADDQ $8, AX
	JMP  axpy_loop8

axpy_tail:
	CMPQ AX, CX
	JGE  axpy_done
	VMOVSS      (SI)(AX*4), X1
	VMOVSS      (DI)(AX*4), X2
	VFMADD231SS X1, X0, X2
	VMOVSS      X2, (DI)(AX*4)
	INCQ AX
	JMP  axpy_tail

axpy_done:
	VZEROUPPER
	RET

// func dotAcc32AVX(a, b []float32) float64
// Inner product: 4×8 float32 FMA lanes, widened and summed in float64 at
// the end. The Go wrapper bounds the call length (dotChunk32), which bounds
// the in-lane float32 accumulation error.
TEXT ·dotAcc32AVX(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS X8, X8, X8   // scalar-tail float32 accumulator
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-32, DX

dot_loop32:
	CMPQ AX, DX
	JGE  dot_rem8
	VMOVUPS     (SI)(AX*4), Y4
	VMOVUPS     32(SI)(AX*4), Y5
	VMOVUPS     64(SI)(AX*4), Y6
	VMOVUPS     96(SI)(AX*4), Y7
	VFMADD231PS (DI)(AX*4), Y4, Y0
	VFMADD231PS 32(DI)(AX*4), Y5, Y1
	VFMADD231PS 64(DI)(AX*4), Y6, Y2
	VFMADD231PS 96(DI)(AX*4), Y7, Y3
	ADDQ $32, AX
	JMP  dot_loop32

dot_rem8:
	MOVQ CX, DX
	ANDQ $-8, DX

dot_rem8_loop:
	CMPQ AX, DX
	JGE  dot_tail
	VMOVUPS     (SI)(AX*4), Y4
	VFMADD231PS (DI)(AX*4), Y4, Y0
	ADDQ $8, AX
	JMP  dot_rem8_loop

dot_tail:
	CMPQ AX, CX
	JGE  dot_sum
	VMOVSS      (SI)(AX*4), X4
	VFMADD231SS (DI)(AX*4), X4, X8
	INCQ AX
	JMP  dot_tail

dot_sum:
	// Combine the four lane accumulators in float32 (reassociation only),
	// then widen the 8 partial sums to float64 for the final reduction.
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VCVTPS2PD    X0, Y1
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD    X2, Y2
	VADDPD       Y2, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VADDPD       X2, X1, X1
	VHADDPD      X1, X1, X1
	VCVTSS2SD    X8, X8, X8
	VADDSD       X8, X1, X1
	VMOVSD       X1, ret+48(FP)
	VZEROUPPER
	RET

// func foldAccAVX(acc []float64, src []float32)
// acc += widen(src), 4 elements per iteration.
TEXT ·foldAccAVX(SB), NOSPLIT, $0-48
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

fold_loop4:
	CMPQ AX, DX
	JGE  fold_tail
	VMOVUPS   (SI)(AX*4), X1
	VCVTPS2PD X1, Y1
	VADDPD    (DI)(AX*8), Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  fold_loop4

fold_tail:
	CMPQ AX, CX
	JGE  fold_done
	VCVTSS2SD (SI)(AX*4), X1, X1
	VADDSD    (DI)(AX*8), X1, X1
	VMOVSD    X1, (DI)(AX*8)
	INCQ AX
	JMP  fold_tail

fold_done:
	VZEROUPPER
	RET

// func widenAVX(dst []float64, src []float32)
// dst = widen(src), 4 elements per iteration.
TEXT ·widenAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

widen_loop4:
	CMPQ AX, DX
	JGE  widen_tail
	VMOVUPS   (SI)(AX*4), X1
	VCVTPS2PD X1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  widen_loop4

widen_tail:
	CMPQ AX, CX
	JGE  widen_done
	VCVTSS2SD (SI)(AX*4), X1, X1
	VMOVSD    X1, (DI)(AX*8)
	INCQ AX
	JMP  widen_tail

widen_done:
	VZEROUPPER
	RET

// func narrowAVX(dst []float32, src []float64)
// dst = round(src), 4 elements per iteration.
TEXT ·narrowAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

narrow_loop4:
	CMPQ AX, DX
	JGE  narrow_tail
	VMOVUPD    (SI)(AX*8), Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    X1, (DI)(AX*4)
	ADDQ $4, AX
	JMP  narrow_loop4

narrow_tail:
	CMPQ AX, CX
	JGE  narrow_done
	VCVTSD2SS (SI)(AX*8), X1, X1
	VMOVSS    X1, (DI)(AX*4)
	INCQ AX
	JMP  narrow_tail

narrow_done:
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
