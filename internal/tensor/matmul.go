package tensor

// parallelThreshold is the minimum number of multiply-adds below which the
// matmul kernels run single-threaded; dispatching pool work for tiny
// products costs more than it saves.
const parallelThreshold = 64 * 64 * 64

// blockSize is the cache-blocking tile edge for the inner kernel. 64×64
// float64 tiles (32 KiB) fit comfortably in L1/L2 on current hardware.
const blockSize = 64

// The scalar range kernels below are the portable implementation and the
// bit-identity oracle of the tiled AVX2 kernels (gemm_amd64.go); both
// builds compile them. Each computes rows [lo,hi) of an m×n destination
// with inner dimension k. The k-ascending kernels (matmulRange,
// matmulT1Range, gramRange) accumulate every output element over k in
// ascending order into their zeroed rows and skip a == 0 terms;
// matmulT2Range is a dot product per element (dotUnroll).

// MatMul returns a × b for matrices a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k {
		panic("tensor: MatMul inner dimension mismatch")
	}
	n := b.Shape[1]
	dst := New(m, n)
	MatMulInto(dst, a, b)
	return dst
}

// MatMulInto computes dst = a × b, reusing dst's storage. dst must be m×n
// and must not alias a or b. Large products are split across the shared
// compute pool (sched.Shared) with bit-identical results to a serial run.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulInto shape mismatch")
	}
	runKernel(kindMatMul, dst.Data, a.Data, b.Data, m, k, n)
}

// matmulRange computes rows [lo,hi) of dst = a×b with i-k-j loop order and
// k-blocking. The i-k-j order streams b rows sequentially, which the
// hardware prefetcher handles well, and accumulates into dst rows.
func matmulRange(dst, a, b []float64, lo, hi, _, k, n int) {
	clear(dst[lo*n : hi*n])
	for kb := 0; kb < k; kb += blockSize {
		kmax := kb + blockSize
		if kmax > k {
			kmax = k
		}
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			drow := dst[i*n : (i+1)*n]
			for kk := kb; kk < kmax; kk++ {
				av := arow[kk]
				if av == 0 {
					continue
				}
				brow := b[kk*n : (kk+1)*n]
				axpy(drow, brow, av)
			}
		}
	}
}

// axpy computes dst += a*src with 4-way unrolling.
func axpy(dst, src []float64, a float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += a * src[i]
		dst[i+1] += a * src[i+1]
		dst[i+2] += a * src[i+2]
		dst[i+3] += a * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += a * src[i]
	}
}

// MatMulT1 returns aᵀ × b for a (k×m) and b (k×n): the m×n product of a's
// transpose with b. Used for weight-gradient and factor computation
// (e.g. A = aᵀa / batch) without materializing the transpose.
func MatMulT1(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k {
		panic("tensor: MatMulT1 inner dimension mismatch")
	}
	n := b.Shape[1]
	dst := New(m, n)
	MatMulT1Into(dst, a, b)
	return dst
}

// MatMulT1Into computes dst = aᵀ × b into dst (m×n), splitting large
// products across the shared compute pool.
func MatMulT1Into(dst, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulT1Into shape mismatch")
	}
	runKernel(kindMatMulT1, dst.Data, a.Data, b.Data, m, k, n)
}

// matmulT1Range computes rows [lo,hi) of dst = aᵀb where a is k×m
// (so aᵀ is m×k) and b is k×n.
func matmulT1Range(dst, a, b []float64, lo, hi, m, k, n int) {
	clear(dst[lo*n : hi*n])
	for kk := 0; kk < k; kk++ {
		arow := a[kk*m : (kk+1)*m]
		brow := b[kk*n : (kk+1)*n]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			axpy(dst[i*n:(i+1)*n], brow, av)
		}
	}
}

// MatMulT2 returns a × bᵀ for a (m×k) and b (n×k).
func MatMulT2(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	if b.Shape[1] != k {
		panic("tensor: MatMulT2 inner dimension mismatch")
	}
	n := b.Shape[0]
	dst := New(m, n)
	MatMulT2Into(dst, a, b)
	return dst
}

// MatMulT2Into computes dst = a × bᵀ into dst (m×n) where b is n×k,
// splitting large products across the shared compute pool.
func MatMulT2Into(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if b.Shape[1] != k || dst.Shape[0] != m || dst.Shape[1] != n {
		panic("tensor: MatMulT2Into shape mismatch")
	}
	runKernel(kindMatMulT2, dst.Data, a.Data, b.Data, m, k, n)
}

// matmulT2Range computes rows [lo,hi) of dst = a×bᵀ. Both a's row i and
// b's row j are contiguous, so this is a sequence of dot products.
func matmulT2Range(dst, a, b []float64, lo, hi, _, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			drow[j] = dotUnroll(arow, b[j*k:(j+1)*k])
		}
	}
}

// dotUnroll returns the dot product of equal-length slices with 4 partial
// accumulators to break the dependency chain.
func dotUnroll(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// GramInto computes the Gram matrix dst = aᵀ × a for a (k×m), writing an
// m×m result. Only the upper triangle is accumulated (half the
// multiply-adds of MatMulT1Into) and the lower triangle is mirrored from
// it. The result is bit-identical to MatMulT1Into(dst, a, a) for finite
// inputs: each upper-triangle element sums the same products in the same
// k-ascending order, and mirroring copies products that are commutatively
// identical.
func GramInto(dst, a *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != m {
		panic("tensor: GramInto shape mismatch")
	}
	runKernel(kindGram, dst.Data, a.Data, a.Data, m, k, m)
	mirrorLower(dst.Data, m)
}

// gramRange accumulates rows [lo,hi) of the upper triangle of aᵀa for a
// (k×m): matmulT1Range with b = a, restricted to columns j ≥ i.
func gramRange(dst, a, _ []float64, lo, hi, m, k, _ int) {
	clear(dst[lo*m : hi*m])
	for kk := 0; kk < k; kk++ {
		arow := a[kk*m : (kk+1)*m]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			axpy(dst[i*m+i:(i+1)*m], arow[i:], av)
		}
	}
}

// mirrorLower copies the upper triangle of the m×m dst into the lower one.
func mirrorLower(dst []float64, m int) {
	for i := 1; i < m; i++ {
		for j := 0; j < i; j++ {
			dst[i*m+j] = dst[j*m+i]
		}
	}
}

// Transpose returns the transpose of matrix a.
func Transpose(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	t := New(n, m)
	const tb = 32 // tile edge for cache-friendly transposition
	for ib := 0; ib < m; ib += tb {
		imax := ib + tb
		if imax > m {
			imax = m
		}
		for jb := 0; jb < n; jb += tb {
			jmax := jb + tb
			if jmax > n {
				jmax = n
			}
			for i := ib; i < imax; i++ {
				for j := jb; j < jmax; j++ {
					t.Data[j*m+i] = a.Data[i*n+j]
				}
			}
		}
	}
	return t
}

// MatVec returns a × x for matrix a (m×n) and vector x (n).
func MatVec(a, x *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if x.Len() != n {
		panic("tensor: MatVec dimension mismatch")
	}
	y := New(m)
	for i := 0; i < m; i++ {
		y.Data[i] = dotUnroll(a.Data[i*n:(i+1)*n], x.Data)
	}
	return y
}

// Outer returns the outer product x yᵀ of vectors x (m) and y (n).
func Outer(x, y *Tensor) *Tensor {
	m, n := x.Len(), y.Len()
	t := New(m, n)
	for i := 0; i < m; i++ {
		xi := x.Data[i]
		row := t.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] = xi * y.Data[j]
		}
	}
	return t
}
