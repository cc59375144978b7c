//go:build amd64 && !purego

package tensor

// The non-fused AVX2 float64 GEMM tiles (simd_amd64.s, gemm_amd64.go) are
// swapped into the kernel table at init when the CPU and OS support them.
// Build with -tags purego to keep the portable scalar path (the
// conformance oracle) on any hardware.

// cpuidRaw executes CPUID with the given leaf/subleaf.
func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (the enabled XSAVE state mask).
func xgetbv0() (eax, edx uint32)

// HasAVX2FMA reports whether the CPU supports AVX2 and FMA and the OS
// has enabled YMM state saving (OSXSAVE + XCR0 bits 1–2) — the full
// precondition for the kernels in simd_amd64.s. It is the one CPU-feature
// probe of the module: internal/linalg's float64 eig kernels dispatch on it
// too. It exists only in amd64 builds without the purego tag.
func HasAVX2FMA() bool {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be OS-enabled.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func init() {
	if HasAVX2FMA() {
		gemmKernels = [numKinds]rangeKernel{
			kindMatMul:   matmulRangeAVX,
			kindMatMulT1: matmulT1RangeAVX,
			kindMatMulT2: matmulT2RangeAVX,
			kindGram:     gramRangeAVX,
		}
	}
}
