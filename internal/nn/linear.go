package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Linear is a fully-connected layer computing y = x Wᵀ + b for input
// x [N, in], weight W [out, in] and bias b [out]. It implements
// KFACCapturable: with capture enabled it retains the input activation
// matrix and the output-gradient matrix for Kronecker factor computation.
type Linear struct {
	name    string
	In, Out int
	W       *Param
	B       *Param // nil when bias is disabled

	capture bool
	x       *tensor.Tensor // cached input for backward
	actCap  *tensor.Tensor // captured activations [N, in]
	gradCap *tensor.Tensor // captured output grads [N, out]
	batch   int

	reuse bool           // recycle the buffers below across steps (BufferReuser)
	yBuf  *tensor.Tensor // forward output
	dwBuf *tensor.Tensor // weight-gradient scratch
	dxBuf *tensor.Tensor // input gradient
}

// NewLinear constructs a linear layer with He initialization.
func NewLinear(name string, in, out int, bias bool, rng *rand.Rand) *Linear {
	w := tensor.New(out, in)
	heInit(rng, w, in)
	l := &Linear{name: name, In: in, Out: out, W: NewParam(name+".weight", w)}
	if bias {
		l.B = NewParam(name+".bias", tensor.New(out))
		l.B.NoWeightDecay = true
	}
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x = x
	l.batch = x.Rows()
	if train && l.capture {
		if l.reuse {
			tensor.Ensure(&l.actCap, x.Shape...).CopyFrom(x)
		} else {
			l.actCap = x.Clone()
		}
	}
	y := ensureBuf(l.reuse, &l.yBuf, x.Rows(), l.Out) // [N, out]
	tensor.MatMulT2Into(y, x, l.W.Value)
	if l.B != nil {
		n, out := y.Rows(), y.Cols()
		for i := 0; i < n; i++ {
			row := y.Data[i*out : (i+1)*out]
			for j := 0; j < out; j++ {
				row[j] += l.B.Value.Data[j]
			}
		}
	}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.capture {
		if l.reuse {
			tensor.Ensure(&l.gradCap, gradOut.Shape...).CopyFrom(gradOut)
		} else {
			l.gradCap = gradOut.Clone()
		}
	}
	// dW = gradOutᵀ × x  ([out, in])
	dW := ensureBuf(l.reuse, &l.dwBuf, l.Out, l.In)
	tensor.MatMulT1Into(dW, gradOut, l.x)
	l.W.Grad.Add(dW)
	if l.B != nil {
		n, out := gradOut.Rows(), gradOut.Cols()
		for i := 0; i < n; i++ {
			row := gradOut.Data[i*out : (i+1)*out]
			for j := 0; j < out; j++ {
				l.B.Grad.Data[j] += row[j]
			}
		}
	}
	// dX = gradOut × W ([N, in])
	dx := ensureBuf(l.reuse, &l.dxBuf, gradOut.Rows(), l.In)
	tensor.MatMulInto(dx, gradOut, l.W.Value)
	return dx
}

// SetBufferReuse implements BufferReuser.
func (l *Linear) SetBufferReuse(on bool) { l.reuse = on }

// Params implements Layer.
func (l *Linear) Params() []*Param {
	if l.B != nil {
		return []*Param{l.W, l.B}
	}
	return []*Param{l.W}
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// SetCapture implements KFACCapturable.
func (l *Linear) SetCapture(on bool) {
	l.capture = on
	if !on {
		l.actCap, l.gradCap = nil, nil
	}
}

// CapturedActivation implements KFACCapturable.
func (l *Linear) CapturedActivation() *tensor.Tensor {
	return l.actCap
}

// CapturedOutputGrad implements KFACCapturable.
func (l *Linear) CapturedOutputGrad() *tensor.Tensor {
	return l.gradCap
}

// BatchSize implements KFACCapturable.
func (l *Linear) BatchSize() int { return l.batch }

// SpatialSize implements KFACCapturable.
func (l *Linear) SpatialSize() int { return 1 }

// HasBias implements KFACCapturable.
func (l *Linear) HasBias() bool { return l.B != nil }

// InDim implements KFACCapturable.
func (l *Linear) InDim() int { return l.In }

// OutDim implements KFACCapturable.
func (l *Linear) OutDim() int { return l.Out }

// CombinedGrad implements KFACCapturable: [out, in(+1)] with the bias
// gradient in the final column when present.
func (l *Linear) CombinedGrad() *tensor.Tensor {
	var g *tensor.Tensor
	if l.B == nil {
		g = tensor.New(l.Out, l.In)
	} else {
		g = tensor.New(l.Out, l.In+1)
	}
	l.CombinedGradInto(g)
	return g
}

// CombinedGradInto implements KFACCapturable.
func (l *Linear) CombinedGradInto(g *tensor.Tensor) {
	if l.B == nil {
		g.CopyFrom(l.W.Grad)
		return
	}
	for i := 0; i < l.Out; i++ {
		copy(g.Data[i*(l.In+1):i*(l.In+1)+l.In], l.W.Grad.Data[i*l.In:(i+1)*l.In])
		g.Data[i*(l.In+1)+l.In] = l.B.Grad.Data[i]
	}
}

// SetCombinedGrad implements KFACCapturable.
func (l *Linear) SetCombinedGrad(g *tensor.Tensor) {
	if l.B == nil {
		l.W.Grad.CopyFrom(g)
		return
	}
	for i := 0; i < l.Out; i++ {
		copy(l.W.Grad.Data[i*l.In:(i+1)*l.In], g.Data[i*(l.In+1):i*(l.In+1)+l.In])
		l.B.Grad.Data[i] = g.Data[i*(l.In+1)+l.In]
	}
}

var _ KFACCapturable = (*Linear)(nil)
