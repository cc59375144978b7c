package linalg

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// Float32 symmetric eigendecomposition by cyclic Jacobi rotations — the
// mixed-precision twin of SymEigInto. Jacobi is preferred over a float32
// tred2/tql2 port because every update is a plane rotation, which the
// tensor.Rot32 kernel vectorizes 8-wide, and because its element-wise
// convergence test is robust at float32 precision where the QL shift
// strategy's eps-scaled deflation is not. The decomposition lands in an
// ordinary float64 Eigen: eigenvalues and eigenvectors are widened at the
// boundary so everything downstream (damped inverses, the decomposition
// allgather, checkpoints) is precision-agnostic.
//
// Note on cost: the float32 Jacobi is typically slower than the float64
// tred2/tql2 path for the factor sizes K-FAC produces (Jacobi is O(n³) per
// sweep with several sweeps). The mixed-precision step still comes out
// ahead because eigendecomposition runs every InvUpdateFreq steps while the
// float32 matmul kernels run every step; see docs/PERFORMANCE.md.

// maxJacobiSweeps bounds the cyclic sweeps of SymEigInto32. Well-conditioned
// symmetric matrices converge in ~6–10 sweeps; the budget only trips on
// pathological inputs.
const maxJacobiSweeps = 40

// jacobiWorkspace holds one decomposition's float32 working matrix and
// transposed eigenvector accumulator; pooled because the K-FAC eig
// scheduler decomposes a rank's owned factors concurrently.
type jacobiWorkspace struct {
	m  []float32 // working copy of the matrix, row-major n×n
	vt []float32 // Vᵀ: row j is eigenvector j, so V-updates are row rotations
}

var jacobiPool = sync.Pool{New: func() any { return new(jacobiWorkspace) }}

// grow sizes the workspace for an n×n problem.
func (w *jacobiWorkspace) grow(n int) {
	need := n * n
	if cap(w.m) < need {
		w.m = make([]float32, need)
	}
	w.m = w.m[:need]
	if cap(w.vt) < need {
		w.vt = make([]float32, need)
	}
	w.vt = w.vt[:need]
}

// SymEigInto32 computes the eigendecomposition of symmetric matrix a using
// float32 working storage, writing the result (widened to float64) into eg
// with the same reuse semantics as SymEigInto. The input is read at float64
// and rounded once into the float32 working copy; rotation parameters are
// computed in float64 from the float32 entries, so each rotation is as
// accurate as float32 storage permits. Asymmetry up to round-off is
// tolerated ((A+Aᵀ)/2 is decomposed). NaN/Inf inputs are rejected before eg
// is touched; ErrNoConvergence is wrapped when the off-diagonal mass fails
// to shrink into tolerance within the sweep budget.
func SymEigInto32(a *tensor.Tensor, eg *Eigen) error {
	n := a.Rows()
	if a.Cols() != n {
		return fmt.Errorf("linalg: SymEigInto32 requires square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	for _, x := range a.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("linalg: SymEigInto32 input contains NaN/Inf")
		}
	}
	q := tensor.Ensure(&eg.Q, n, n)
	eg.Values = ensureFloats(eg.Values, n)
	if n == 0 {
		return nil
	}

	ws := jacobiPool.Get().(*jacobiWorkspace)
	defer jacobiPool.Put(ws)
	ws.grow(n)
	m, vt := ws.m, ws.vt

	// Narrow + symmetrize the input; start V at identity. frob2 fixes the
	// convergence scale: off-diagonal mass below ~1e-12·‖A‖²_F is round-off
	// at float32 resolution (ε₃₂² ≈ 1.4e-14), not structure.
	frob2 := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0.5 * (a.Data[i*n+j] + a.Data[j*n+i])
			m[i*n+j] = float32(v)
			vt[i*n+j] = 0
		}
		vt[i*n+i] = 1
		for j := 0; j < n; j++ {
			v := float64(m[i*n+j])
			frob2 += v * v
		}
	}
	tol := 1e-12 * (frob2 + 1)

	off := offDiag2(m, n)
	sweeps := 0
	for off > tol && sweeps < maxJacobiSweeps {
		for p := 0; p < n-1; p++ {
			rowP := m[p*n : (p+1)*n]
			for qi := p + 1; qi < n; qi++ {
				apq := float64(rowP[qi])
				if apq == 0 {
					continue
				}
				app := float64(rowP[p])
				aqq := float64(m[qi*n+qi])
				// Rotation parameters in float64 (Golub & Van Loan §8.5.2):
				// t = tan of the angle that zeroes a[p][q].
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c64 := 1 / math.Sqrt(t*t+1)
				s64 := t * c64
				c, s := float32(c64), float32(s64)

				// A ← JᵀA: rotate rows p and q (vectorized).
				rowQ := m[qi*n : (qi+1)*n]
				tensor.Rot32(rowP, rowQ, c, s)
				// A ← AJ: rotate columns p and q (strided scalar pass).
				for k := 0; k < n; k++ {
					akp := m[k*n+p]
					akq := m[k*n+qi]
					m[k*n+p] = c*akp - s*akq
					m[k*n+qi] = s*akp + c*akq
				}
				// V ← VJ, maintained transposed: rotate VT rows p and q.
				tensor.Rot32(vt[p*n:(p+1)*n], vt[qi*n:(qi+1)*n], c, s)
			}
		}
		off = offDiag2(m, n)
		sweeps++
	}
	if off > tol*1e6 {
		// Far outside round-off even after the full sweep budget.
		return fmt.Errorf("linalg: SymEigInto32 off-diagonal %.3e above tolerance %.3e: %w", off, tol, ErrNoConvergence)
	}

	// Sort eigenvalues ascending, permuting VT rows to match.
	for i := 0; i < n; i++ {
		eg.Values[i] = float64(m[i*n+i])
	}
	for i := 0; i < n-1; i++ {
		k := i
		p := eg.Values[i]
		for j := i + 1; j < n; j++ {
			if eg.Values[j] < p {
				k = j
				p = eg.Values[j]
			}
		}
		if k != i {
			eg.Values[k] = eg.Values[i]
			eg.Values[i] = p
			ri, rk := vt[i*n:(i+1)*n], vt[k*n:(k+1)*n]
			for j := 0; j < n; j++ {
				ri[j], rk[j] = rk[j], ri[j]
			}
		}
	}
	// Widen VT into Q with the transpose folded in: Q's column j is
	// eigenvector j, i.e. VT's row j.
	for j := 0; j < n; j++ {
		row := vt[j*n : (j+1)*n]
		for i := 0; i < n; i++ {
			q.Data[i*n+j] = float64(row[i])
		}
	}
	return nil
}

// offDiag2 returns the sum of squared off-diagonal elements (in float64) —
// the quantity each Jacobi sweep monotonically shrinks.
func offDiag2(m []float32, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		row := m[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			v := float64(row[j])
			s += v * v
		}
	}
	return s
}
