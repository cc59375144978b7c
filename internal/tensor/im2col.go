package tensor

// Im2Col lowers a batched image tensor to the matrix used by GEMM-based
// convolution. Input x has shape [N, C, H, W]; the result has shape
// [N*outH*outW, C*kh*kw] where each row is the receptive field of one
// output position. With the kernel flattened to [C*kh*kw, outC] the
// convolution is a single matrix multiply — the same lowering cuDNN and
// PyTorch's unfold use, and the reason K-FAC's A factor for a Conv2D layer
// has dimension C*kh*kw (+1 with bias): each im2col row is one "activation"
// sample.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	cols := New(n*outH*outW, c*kh*kw)
	Im2ColInto(cols, x, kh, kw, stride, pad)
	return cols
}

// Im2ColInto is Im2Col writing into a caller-provided destination of shape
// [N*outH*outW, C*kh*kw]. The destination is fully overwritten (padding
// positions are zeroed explicitly), so reused workspace buffers are safe.
func Im2ColInto(cols, x *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	if cols.Shape[0] != n*outH*outW || cols.Shape[1] != c*kh*kw {
		panic("tensor: Im2ColInto shape mismatch")
	}
	colW := c * kh * kw
	for img := 0; img < n; img++ {
		base := img * c * h * w
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*stride - pad
				row := cols.Data[((img*outH+oy)*outW+ox)*colW:][:colW]
				if iy0 >= 0 && iy0+kh <= h && ix0 >= 0 && ix0+kw <= w {
					// Interior: every kernel row is an in-bounds span.
					idx := 0
					for ch := 0; ch < c; ch++ {
						src := x.Data[base+ch*h*w+iy0*w+ix0:]
						for ky := 0; ky < kh; ky++ {
							d := row[idx : idx+kw]
							for kx, v := range src[ky*w : ky*w+kw] {
								d[kx] = v
							}
							idx += kw
						}
					}
					continue
				}
				idx := 0
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							// Entire kernel row is padding.
							clear(row[idx : idx+kw])
							idx += kw
							continue
						}
						rowBase := chBase + iy*w
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < w {
								row[idx] = x.Data[rowBase+ix]
							} else {
								row[idx] = 0
							}
							idx++
						}
					}
				}
			}
		}
	}
}

// Col2Im scatters the column matrix back into image space, accumulating
// overlapping contributions. It is the adjoint of Im2Col and is used for the
// input-gradient of convolution. cols has shape [N*outH*outW, C*kh*kw]; the
// result has shape [N, C, H, W].
func Col2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	x := New(n, c, h, w)
	Col2ImInto(x, cols, kh, kw, stride, pad)
	return x
}

// Col2ImInto is Col2Im accumulating into a caller-provided [N, C, H, W]
// destination, which it zeroes first. Contributions to each image element
// are added in ascending output-position order.
func Col2ImInto(x, cols *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	x.Zero()
	colW := c * kh * kw
	for img := 0; img < n; img++ {
		base := img * c * h * w
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*stride - pad
				row := cols.Data[((img*outH+oy)*outW+ox)*colW:][:colW]
				if iy0 >= 0 && iy0+kh <= h && ix0 >= 0 && ix0+kw <= w {
					// Interior: every kernel row is an in-bounds span.
					idx := 0
					for ch := 0; ch < c; ch++ {
						dst := x.Data[base+ch*h*w+iy0*w+ix0:]
						for ky := 0; ky < kh; ky++ {
							d := dst[ky*w : ky*w+kw]
							for kx, v := range row[idx : idx+kw] {
								d[kx] += v
							}
							idx += kw
						}
					}
					continue
				}
				idx := 0
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							idx += kw
							continue
						}
						rowBase := chBase + iy*w
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < w {
								x.Data[rowBase+ix] += row[idx]
							}
							idx++
						}
					}
				}
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size k with the given stride and padding applied to extent in.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
