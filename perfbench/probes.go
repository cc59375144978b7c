package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/linalg"
	"repro/internal/tensor"
)

// Kernel probes time the GEMM, symmetric-multiply and eigensolver kernels
// after the traced run, at the workload's own shapes: each K-FAC layer's
// factor dimensions from Preconditioner.FactorRefs and its activation
// geometry from the last captured step. Operation counts are computed from
// those shapes, not measured.
const (
	probeBudget    = 400 * time.Millisecond
	eigProbeBudget = time.Second
)

func probeKernels(rep *report, t *tracedRun, w *workload, cfg runConfig) error {
	refs := t.prec.FactorRefs()
	if len(refs) != 2*len(t.shapes) {
		return fmt.Errorf("probe: %d factors for %d captured layers", len(refs), len(t.shapes))
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	// One random buffer backs every layer's activation and output-gradient
	// views, sized for the largest.
	var maxAct, maxOut int
	for _, s := range t.shapes {
		maxAct, maxOut = max(maxAct, s.rows*s.in), max(maxOut, s.rows*s.out)
	}
	actBuf, outBuf := randSlice(rng, maxAct), randSlice(rng, maxOut)

	type gemmSet struct{ qg, qa, g, w1, w2, w3, w4, act, wt, fo *tensor.Tensor }
	var gemms []gemmSet
	var gemmFlops float64
	for i, s := range t.shapes {
		da, dg := refs[2*i].Dim, refs[2*i+1].Dim
		gemms = append(gemms, gemmSet{
			qg: randTensor(rng, dg, dg), qa: randTensor(rng, da, da), g: randTensor(rng, dg, da),
			w1: tensor.New(dg, da), w2: tensor.New(dg, da), w3: tensor.New(dg, da), w4: tensor.New(dg, da),
			act: tensor.FromSlice(actBuf[:s.rows*s.in], s.rows, s.in), wt: randTensor(rng, s.out, s.in),
			fo: tensor.FromSlice(outBuf[:s.rows*s.out], s.rows, s.out),
		})
		// Preconditioning: Q_Gᵀ·∇, ·Q_A, ·Q_Aᵀ, Q_G·; then the forward
		// product activations·Wᵀ. A GEMM of m×k by k×n is 2mkn FLOP.
		gemmFlops += 2 * float64(dg*dg*da+dg*da*da+dg*da*da+dg*dg*da+s.rows*s.in*s.out)
	}
	gemmSec := timePasses(probeBudget, 3, func() {
		for _, g := range gemms {
			tensor.MatMulT1Into(g.w1, g.qg, g.g)
			tensor.MatMulInto(g.w2, g.w1, g.qa)
			tensor.MatMulT2Into(g.w3, g.w2, g.qa)
			tensor.MatMulInto(g.w4, g.qg, g.w3)
			tensor.MatMulT2Into(g.fo, g.act, g.wt)
		}
	})

	// Covariance Grams aᵀa of activations and output gradients: the
	// symmetric kernel computes one triangle, m²k FLOP for an m×m result.
	type symSet struct{ a, g, covA, covG *tensor.Tensor }
	var syms []symSet
	var symFlops float64
	for _, s := range t.shapes {
		syms = append(syms, symSet{
			a: tensor.FromSlice(actBuf[:s.rows*s.in], s.rows, s.in), covA: tensor.New(s.in, s.in),
			g: tensor.FromSlice(outBuf[:s.rows*s.out], s.rows, s.out), covG: tensor.New(s.out, s.out),
		})
		symFlops += float64(s.in*s.in*s.rows + s.out*s.out*s.rows)
	}
	symSec := timePasses(probeBudget, 3, func() {
		for _, s := range syms {
			linalg.SymMulT1Into(s.covA, s.a)
			linalg.SymMulT1Into(s.covG, s.g)
		}
	})

	// Symmetric eigendecomposition with eigenvectors of every factor,
	// counted as 9n³ FLOP (the usual estimate for tridiagonalization,
	// back-accumulation and implicit QL).
	team := runtime.GOMAXPROCS(0)
	type eigSet struct {
		a  *tensor.Tensor
		eg *linalg.Eigen
	}
	var eigs []eigSet
	var eigFlops float64
	for _, r := range refs {
		eigs = append(eigs, eigSet{a: randSymmetric(rng, r.Dim), eg: &linalg.Eigen{}})
		eigFlops += 9 * math.Pow(float64(r.Dim), 3)
	}
	var eigErr error
	eigSec := timePasses(eigProbeBudget, 1, func() {
		for _, e := range eigs {
			if err := linalg.SymEigBlockedInto(e.a, e.eg, team); err != nil && eigErr == nil {
				eigErr = err
			}
		}
	})
	if eigErr != nil {
		return fmt.Errorf("eig probe: %w", eigErr)
	}

	rep.set("tensor.gemm_gflops", gemmFlops/gemmSec/1e9, "GFLOP/s")
	rep.set("linalg.symmul_gflops", symFlops/symSec/1e9, "GFLOP/s")
	rep.set("linalg.eig_gflops", eigFlops/eigSec/1e9, "GFLOP/s")
	rep.note("kernel probes (computed FLOP per pass): gemm %.4g over %d layers, symmul %.4g, eig %.4g over %d factors at team %d",
		gemmFlops, len(gemms), symFlops, eigFlops, len(eigs), team)
	return nil
}

// timePasses runs pass until budget has elapsed and at least minPasses
// have run, and returns the median pass time in seconds.
func timePasses(budget time.Duration, minPasses int, pass func()) float64 {
	var secs []float64
	start := time.Now()
	for len(secs) < minPasses || time.Since(start) < budget {
		t0 := time.Now()
		pass()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func randTensor(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	return tensor.FromSlice(randSlice(rng, rows*cols), rows, cols)
}

// randSymmetric returns a random symmetric n×n matrix.
func randSymmetric(rng *rand.Rand, n int) *tensor.Tensor {
	a := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			a.Data[i*n+j], a.Data[j*n+i] = v, v
		}
	}
	return a
}
