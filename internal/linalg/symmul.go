package linalg

import "repro/internal/tensor"

// SymMulT1Into computes the Gram matrix dst = aᵀ × a for a (k×m), writing
// an m×m result. It is the kernel K-FAC's covariance factors A = aᵀa/N and
// G = gᵀg are built from: because the result is symmetric, only the upper
// triangle is computed (half the multiply-adds of a general matmul) and the
// lower triangle is mirrored. It runs on tensor.GramInto, the same float64
// kernel family as tensor.MatMulT1Into.
//
// The result is bit-identical to tensor.MatMulT1Into(dst, a, a) for finite
// inputs: each upper-triangle element accumulates the same products in the
// same k-ascending order as the general kernel, and mirroring copies
// products that are commutatively identical. Large products are split
// row-blocked across the shared compute pool (sched.Shared) with zero
// steady-state heap allocation; parallel results are bit-identical to
// serial ones because every element is produced by exactly one range.
func SymMulT1Into(dst, a *tensor.Tensor) { tensor.GramInto(dst, a) }

// SymMulT1 returns aᵀ × a for a (k×m) as a freshly allocated m×m tensor.
func SymMulT1(a *tensor.Tensor) *tensor.Tensor {
	dst := tensor.New(a.Shape[1], a.Shape[1])
	SymMulT1Into(dst, a)
	return dst
}
