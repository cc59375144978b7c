//go:build amd64 && !purego

package tensor

// Go loop nests around the register-tiled AVX2 float64 GEMM kernels. The
// amd64 init (simd_amd64.go) installs them in gemmKernels when the CPU
// supports AVX2.
//
// Contract: bit-identical to the scalar kernels of matmul.go for finite
// inputs. The tiles multiply with VMULPD and add with VADDPD, never a fused
// multiply-add, so each product and each sum rounds as in Go.
//
//   - k-ascending tile (MatMul, MatMulT1, Gram): a 4×8 block of dst is
//     held in registers while k runs; every element adds its k terms in
//     ascending order. Panels of gemmKC×gemmNC only split the k run across
//     calls, storing and reloading the partial sums exactly.
//   - dot tile (MatMulT2): a 2×4 block of dot products keeps dotUnroll's
//     four accumulators as the four lanes of a YMM register, with the
//     k mod 4 tail in lane 0, reduced as ((s0+s1)+s2)+s3.
//
// Zero skip: the scalar k-ascending kernels skip a == 0 terms; the tile
// adds them. For finite b the term is ±0, and adding ±0 to a sum that
// starts at +0 cannot change it: such a sum is never −0, since x + y is −0
// only when both are −0. For non-finite b the term is 0·±Inf or 0·NaN =
// NaN, so the tile may return NaN where the scalar kernel skipped, but
// never the reverse: every element is either the scalar kernel's value or
// NaN, and it is NaN wherever the scalar kernel's is. A non-finite result
// is never hidden (TestGEMMNonFiniteNeverHidden).
//
// Edges: a row block shorter than four repeats its last row (the repeats
// compute and store the same values), the last column tile is masked, and
// a dot tile repeats its last row or column and discards the repeats.

//go:noescape
func gemmTile4AVX(c0, c1, c2, c3, a, b *float64, ldb, k, n int, load bool)

//go:noescape
func dotTileAVX(out *[8][4]float64, a0, a1, b0, b1, b2, b3 *float64, k int)

const (
	// gemmKC×gemmNC is the B panel (256 KiB) one sweep over a row range
	// reuses from L2; a row block's A panel, 4×gemmKC, is packed on the
	// stack.
	gemmKC = 128
	gemmNC = 256
	// dotPanel bounds the B rows × k (in float64s) one dot-tile sweep
	// reuses from L2.
	dotPanel = 32 << 10
)

// matmulRangeAVX is matmulRange on the k-ascending tile: A(i,kk) = a[i·k+kk].
func matmulRangeAVX(dst, a, b []float64, lo, hi, _, k, n int) {
	gemmRowsAVX(dst, a, b, lo, hi, k, n, k, 1, false)
}

// matmulT1RangeAVX is matmulT1Range on the k-ascending tile:
// A(i,kk) = a[kk·m+i].
func matmulT1RangeAVX(dst, a, b []float64, lo, hi, m, k, n int) {
	gemmRowsAVX(dst, a, b, lo, hi, k, n, 1, m, false)
}

// gramRangeAVX is gramRange on the k-ascending tile. Each 4-row block
// starts its columns at its first row, so it also writes a few entries
// below the diagonal; GramInto's mirror overwrites them.
func gramRangeAVX(dst, a, _ []float64, lo, hi, m, k, _ int) {
	gemmRowsAVX(dst, a, a, lo, hi, k, m, 1, m, true)
}

// gemmRowsAVX writes rows [lo,hi) of dst (m×n) = A·B with
// A(i,kk) = a[i·rsA + kk·csA] and B(kk,j) = b[kk·n + j]. With upper set,
// row block i covers columns j ≥ i only.
func gemmRowsAVX(dst, a, b []float64, lo, hi, k, n, rsA, csA int, upper bool) {
	if k == 0 {
		clear(dst[lo*n : hi*n])
		return
	}
	var pack [4 * gemmKC]float64
	var c [4]*float64
	for jc := 0; jc < n; jc += gemmNC {
		jn := min(jc+gemmNC, n)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			for i := lo; i < hi; i += 4 {
				j0 := jc
				if upper {
					j0 = max(jc, i)
				}
				if j0 >= jn {
					break
				}
				for r := range 4 {
					c[r] = &dst[min(i+r, hi-1)*n+j0]
				}
				packA(&pack, a, i, hi, pc, kc, rsA, csA)
				gemmTile4AVX(c[0], c[1], c[2], c[3], &pack[0], &b[pc*n+j0], n, kc, jn-j0, pc > 0)
			}
		}
	}
}

// packA fills pack[4kk+r] = A(i+r, pc+kk) for kk < kc, repeating row
// hi−1 for rows past the range end.
func packA(pack *[4 * gemmKC]float64, a []float64, i, hi, pc, kc, rsA, csA int) {
	switch {
	case i+4 <= hi && rsA == 1:
		// MatMulT1 and Gram: the block's four values of each k are adjacent.
		for kk := range kc {
			s := a[(pc+kk)*csA+i:][:4]
			p := pack[4*kk:][:4]
			p[0], p[1], p[2], p[3] = s[0], s[1], s[2], s[3]
		}
	case i+4 <= hi && csA == 1:
		// MatMul: four contiguous rows.
		r0 := a[i*rsA+pc:][:kc]
		r1 := a[(i+1)*rsA+pc:][:kc]
		r2 := a[(i+2)*rsA+pc:][:kc]
		r3 := a[(i+3)*rsA+pc:][:kc]
		for kk := range kc {
			p := pack[4*kk:][:4]
			p[0], p[1], p[2], p[3] = r0[kk], r1[kk], r2[kk], r3[kk]
		}
	default:
		for r := range 4 {
			src := a[min(i+r, hi-1)*rsA+pc*csA:]
			for kk := range kc {
				pack[4*kk+r] = src[kk*csA]
			}
		}
	}
}

// matmulT2RangeAVX is matmulT2Range on the dot tile.
func matmulT2RangeAVX(dst, a, b []float64, lo, hi, _, k, n int) {
	if k == 0 {
		clear(dst[lo*n : hi*n])
		return
	}
	var acc [8][4]float64
	nb := max(4, dotPanel/k&^3)
	for jc := 0; jc < n; jc += nb {
		jn := min(jc+nb, n)
		for i := lo; i < hi; i += 2 {
			a0, a1 := &a[i*k], &a[min(i+1, hi-1)*k]
			for j := jc; j < jn; j += 4 {
				dotTileAVX(&acc, a0, a1, &b[j*k], &b[min(j+1, jn-1)*k],
					&b[min(j+2, jn-1)*k], &b[min(j+3, jn-1)*k], k)
				for r := 0; r < 2 && i+r < hi; r++ {
					row := dst[(i+r)*n : (i+r+1)*n]
					for c := 0; c < 4 && j+c < jn; c++ {
						s := &acc[4*r+c]
						row[j+c] = s[0] + s[1] + s[2] + s[3]
					}
				}
			}
		}
	}
}
