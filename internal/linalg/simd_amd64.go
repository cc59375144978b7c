//go:build amd64 && !purego

package linalg

import (
	"math"

	"repro/internal/tensor"
)

// AVX2+FMA implementations of the blocked eigensolver's float64 kernel
// primitives (simd_amd64.s), swapped into the dispatch variables at init
// when the CPU and OS support them. Build with -tags purego to keep the
// portable scalar path on any hardware. The feature probe is
// tensor.HasAVX2FMA, so both packages always select the same ISA.

//go:noescape
func dotF64AVX(a, b []float64) float64

//go:noescape
func axpyF64AVX(dst, src []float64, a float64)

//go:noescape
func rotRows4AVX(a0, a1, a2, a3, cs, sn []float64, nrot int)

// rotSweepRowFMA is the single-row rotation sweep with arithmetic
// bitwise-matched to rotRows4AVX: the right-column update is one rounded
// product plus one fused multiply-add (VMULPD + VFMADD231PD), the carry
// update one rounded product plus one fused negated multiply-add
// (VMULPD + VFNMADD231PD). Chunk grids group rows into fours with a
// scalar remainder, so this pairing is what keeps the QL pass
// deterministic across team sizes under the AVX dispatch.
func rotSweepRowFMA(sub, cs, sn []float64, nrot int) {
	carry := sub[nrot]
	for t := 0; t < nrot; t++ {
		p := nrot - 1 - t
		x := sub[p]
		c, s := cs[t], sn[t]
		sub[p+1] = math.FMA(s, x, c*carry)
		carry = math.FMA(-s, carry, c*x)
	}
	sub[0] = carry
}

func init() {
	if tensor.HasAVX2FMA() {
		eigDot = dotF64AVX
		eigAxpy = axpyF64AVX
		rotRows4 = rotRows4AVX
		rotRow = rotSweepRowFMA
		eigKernelISA = "avx2+fma"
	}
}
