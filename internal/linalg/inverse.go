package linalg

import (
	"errors"
	"fmt"

	"math"

	"repro/internal/tensor"
)

// ErrSingular is returned when a matrix is numerically singular.
var ErrSingular = errors.New("linalg: matrix is singular")

// Inverse returns the inverse of square matrix a computed by Gauss–Jordan
// elimination with partial pivoting. This is the explicit-inverse path the
// paper ablates in Table I: cheaper per update than eigendecomposition but
// less robust for ill-conditioned covariance factors.
//
// Inverse (and InverseDamped) are reentrant: the input is cloned before
// elimination and no package state is shared, so concurrent calls are safe
// — the property the K-FAC eig scheduler depends on when inverting a
// rank's owned factors in parallel.
func Inverse(a *tensor.Tensor) (*tensor.Tensor, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("linalg: Inverse requires square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	// Augment [A | I] and reduce in place.
	m := a.Clone()
	inv := tensor.Eye(n)
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude entry in this column.
		pivot := col
		maxAbs := math.Abs(m.Data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.Data[r*n+col]); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(m.Data, n, pivot, col)
			swapRows(inv.Data, n, pivot, col)
		}
		// Scale pivot row.
		p := m.Data[col*n+col]
		invP := 1 / p
		for j := 0; j < n; j++ {
			m.Data[col*n+j] *= invP
			inv.Data[col*n+j] *= invP
		}
		// Eliminate all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m.Data[r*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				m.Data[r*n+j] -= f * m.Data[col*n+j]
				inv.Data[r*n+j] -= f * inv.Data[col*n+j]
			}
		}
	}
	return inv, nil
}

func swapRows(data []float64, n, i, j int) {
	ri := data[i*n : (i+1)*n]
	rj := data[j*n : (j+1)*n]
	for k := 0; k < n; k++ {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// InverseDamped returns (A + γI)⁻¹ by explicit inversion — the Tikhonov-
// regularized inverse of Equation (11) in the paper.
func InverseDamped(a *tensor.Tensor, gamma float64) (*tensor.Tensor, error) {
	n := a.Rows()
	d := a.Clone()
	for i := 0; i < n; i++ {
		d.Data[i*n+i] += gamma
	}
	return Inverse(d)
}

// Cholesky returns the lower-triangular L with A = L Lᵀ for symmetric
// positive-definite a. Returns ErrSingular if a pivot is not positive.
func Cholesky(a *tensor.Tensor) (*tensor.Tensor, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("linalg: Cholesky requires square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	l := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.Data[i*n+j]
			for k := 0; k < j; k++ {
				s -= l.Data[i*n+k] * l.Data[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				l.Data[i*n+i] = math.Sqrt(s)
			} else {
				l.Data[i*n+j] = s / l.Data[j*n+j]
			}
		}
	}
	return l, nil
}

// SolveCholesky solves A x = b given the Cholesky factor L of A, for each
// column of b. b is n×m; the result is n×m.
func SolveCholesky(l, b *tensor.Tensor) *tensor.Tensor {
	n := l.Rows()
	m := b.Cols()
	x := b.Clone()
	// Forward solve L y = b.
	for col := 0; col < m; col++ {
		for i := 0; i < n; i++ {
			s := x.Data[i*m+col]
			for k := 0; k < i; k++ {
				s -= l.Data[i*n+k] * x.Data[k*m+col]
			}
			x.Data[i*m+col] = s / l.Data[i*n+i]
		}
		// Back solve Lᵀ x = y.
		for i := n - 1; i >= 0; i-- {
			s := x.Data[i*m+col]
			for k := i + 1; k < n; k++ {
				s -= l.Data[k*n+i] * x.Data[k*m+col]
			}
			x.Data[i*m+col] = s / l.Data[i*n+i]
		}
	}
	return x
}

// ConditionNumber estimates the 2-norm condition number of symmetric matrix
// a from its eigendecomposition: |λ|max / |λ|min. Returns +Inf when the
// smallest magnitude eigenvalue is zero.
func ConditionNumber(a *tensor.Tensor) (float64, error) {
	eg, err := SymEig(a)
	if err != nil {
		return 0, err
	}
	if len(eg.Values) == 0 {
		return 1, nil
	}
	maxAbs, minAbs := 0.0, math.Inf(1)
	for _, v := range eg.Values {
		av := math.Abs(v)
		if av > maxAbs {
			maxAbs = av
		}
		if av < minAbs {
			minAbs = av
		}
	}
	if minAbs == 0 {
		return math.Inf(1), nil
	}
	return maxAbs / minAbs, nil
}
