package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sched"
	"repro/internal/testenv"
)

// wantTiledGEMM is set by gemm_amd64_test.go on builds and CPUs where the
// AVX2 tiles must be the active float64 kernels.
var wantTiledGEMM bool

// scalarKernels are the oracles: the portable range kernels of matmul.go,
// compiled in every build.
var scalarKernels = [numKinds]rangeKernel{
	kindMatMul:   matmulRange,
	kindMatMulT1: matmulT1Range,
	kindMatMulT2: matmulT2Range,
	kindGram:     gramRange,
}

var kindNames = [numKinds]string{"MatMul", "MatMulT1", "MatMulT2", "Gram"}

// gemmSizes is the dimension sweep: every tile edge, one past and one short
// of it, and sizes that span several k and column panels.
var gemmSizes = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 145, 577}

// gemmOperands returns the flat operands of kind for an m×n result with
// inner dimension k: a has about half exact zeros (like ReLU activations)
// and both carry negative values.
func gemmOperands(rng *rand.Rand, kind kernelKind, m, k, n int) (a, b []float64) {
	a = make([]float64, m*k)
	for i := range a {
		if rng.Intn(2) == 0 {
			a[i] = rng.NormFloat64()
		}
	}
	switch kind {
	case kindGram:
		b = a
	case kindMatMulT2:
		b = randSlice(rng, n*k)
	default:
		b = randSlice(rng, k*n)
	}
	return a, b
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// oracleProduct returns the scalar result of kind. The Gram oracle is the
// full scalar aᵀa, which the upper-triangle kernel plus mirror must match.
func oracleProduct(kind kernelKind, a, b []float64, m, k, n int) []float64 {
	dst := make([]float64, m*n)
	if kind == kindGram {
		matmulT1Range(dst, a, a, 0, m, m, k, m)
		return dst
	}
	scalarKernels[kind](dst, a, b, 0, m, m, k, n)
	return dst
}

// activeProduct runs the active kernel of kind over rows [0,m), serially
// when chunks is 1 and otherwise split into chunks ranges on the shared
// pool regardless of size.
func activeProduct(kind kernelKind, a, b []float64, m, k, n, chunks int) []float64 {
	dst := make([]float64, m*n)
	if chunks <= 1 {
		gemmKernels[kind](dst, a, b, 0, m, m, k, n)
	} else {
		r := &matRanger{kernel: gemmKernels[kind], dst: dst, a: a, b: b, m: m, k: k, n: n}
		sched.Shared().ForEach(m, chunks, r, &r.wg)
	}
	if kind == kindGram {
		mirrorLower(dst, m)
	}
	return dst
}

// firstBitDiff returns the index of the first element whose bits differ,
// or -1.
func firstBitDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkBitIdentical runs kind serially and pool-split on (a, b) and
// reports any bit that differs from the scalar oracle.
func checkBitIdentical(t testing.TB, kind kernelKind, a, b []float64, m, k, n int) {
	t.Helper()
	want := oracleProduct(kind, a, b, m, k, n)
	for _, chunks := range []int{1, 3} {
		got := activeProduct(kind, a, b, m, k, n, chunks)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%s m=%d k=%d n=%d chunks=%d: element (%d,%d) = %v (%#x), oracle %v (%#x)",
				kindNames[kind], m, k, n, chunks, i/n, i%n, got[i], math.Float64bits(got[i]),
				want[i], math.Float64bits(want[i]))
		}
	}
}

// checkTiledSelected fails when the build and CPU call for the tiled
// kernels but a scalar one is active, so the differential tests never
// compare the oracle with itself.
func checkTiledSelected(t *testing.T) {
	t.Helper()
	for kind := range numKinds {
		scalar := reflect.ValueOf(gemmKernels[kind]).Pointer() == reflect.ValueOf(scalarKernels[kind]).Pointer()
		if wantTiledGEMM && scalar {
			t.Fatalf("%s: scalar kernel active on an AVX2 build", kindNames[kind])
		}
	}
	if !wantTiledGEMM {
		t.Logf("no AVX2 tiles on %s (purego build or CPU without AVX2): checking the scalar path", runtime.GOARCH)
	}
}

// TestGEMMBitIdenticalToScalarOracle is the differential gate of the float64
// GEMM family: MatMul, MatMulT1, MatMulT2 and the Gram kernel must equal the
// scalar range kernels bit for bit over every (m, k, n) of gemmSizes whose
// product fits the budget, serially and split across the pool.
func TestGEMMBitIdenticalToScalarOracle(t *testing.T) {
	checkTiledSelected(t)
	budget := testenv.Scale(1<<22, 1<<18)
	rng := rand.New(rand.NewSource(1))
	for kind := range numKinds {
		for _, m := range gemmSizes {
			for _, k := range gemmSizes {
				for _, n := range gemmSizes {
					if kind == kindGram && n != m {
						continue
					}
					if m*k*n > budget {
						continue
					}
					a, b := gemmOperands(rng, kind, m, k, n)
					checkBitIdentical(t, kind, a, b, m, k, n)
				}
			}
		}
	}
	// The largest size on every axis at once, beyond the budget.
	for kind := range numKinds {
		a, b := gemmOperands(rng, kind, 145, 577, 145)
		checkBitIdentical(t, kind, a, b, 145, 577, 145)
	}
}

// TestGEMMPublicEntryPointsMatchOracle checks that the exported functions
// route to the same kernels: MatMulInto, MatMulT1Into, MatMulT2Into and
// GramInto against the oracle, at a size that splits across the pool.
func TestGEMMPublicEntryPointsMatchOracle(t *testing.T) {
	const m, k, n = 70, 90, 65
	rng := rand.New(rand.NewSource(2))
	for kind := range numKinds {
		nn := n
		if kind == kindGram {
			nn = m
		}
		a, b := gemmOperands(rng, kind, m, k, nn)
		want := oracleProduct(kind, a, b, m, k, nn)
		dst := New(m, nn)
		dst.Fill(7) // stale contents must be overwritten
		switch kind {
		case kindMatMul:
			MatMulInto(dst, FromSlice(a, m, k), FromSlice(b, k, nn))
		case kindMatMulT1:
			// matmulT1Range reads a as k×m.
			MatMulT1Into(dst, FromSlice(a, k, m), FromSlice(b, k, nn))
		case kindMatMulT2:
			MatMulT2Into(dst, FromSlice(a, m, k), FromSlice(b, nn, k))
		case kindGram:
			GramInto(dst, FromSlice(a, k, m))
		}
		if i := firstBitDiff(dst.Data, want); i >= 0 {
			t.Fatalf("%s: element %d = %v, oracle %v", kindNames[kind], i, dst.Data[i], want[i])
		}
	}
}

// TestGEMMNonFiniteNeverHidden pins the zero-skip contract for non-finite
// B: where the scalar kernel skips a == 0 terms, the tile adds 0·Inf or
// 0·NaN, so it may return NaN where the oracle did not — but every element
// is either the oracle's value or NaN, and it is NaN wherever the oracle's
// is. A non-finite result is never turned into a finite one.
func TestGEMMNonFiniteNeverHidden(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for kind := range numKinds {
		for _, sh := range [][3]int{{5, 9, 7}, {17, 33, 16}, {64, 145, 33}} {
			m, k, n := sh[0], sh[1], sh[2]
			if kind == kindGram {
				n = m
			}
			a, b := gemmOperands(rng, kind, m, k, n)
			// Non-finite values in B; for the Gram B is a itself.
			for i := 0; i < len(b); i += 11 {
				b[i] = specials[rng.Intn(len(specials))]
			}
			want := oracleProduct(kind, a, b, m, k, n)
			if kind == kindGram {
				// Here the oracle is the scalar Gram itself: its mirrored
				// lower triangle skips on the other factor's zeros, so for
				// non-finite inputs it differs from the full aᵀa.
				gramRange(want, a, a, 0, m, m, k, m)
				mirrorLower(want, m)
			}
			sawNaN := false
			for _, chunks := range []int{1, 3} {
				got := activeProduct(kind, a, b, m, k, n, chunks)
				for i := range want {
					g, w := got[i], want[i]
					switch {
					case math.IsNaN(w) && !math.IsNaN(g):
						t.Fatalf("%s %v chunks=%d: element %d = %v hides the oracle's NaN",
							kindNames[kind], sh, chunks, i, g)
					case math.IsNaN(g):
						sawNaN = true
					case math.Float64bits(g) != math.Float64bits(w):
						t.Fatalf("%s %v chunks=%d: element %d = %v, oracle %v",
							kindNames[kind], sh, chunks, i, g, w)
					}
				}
			}
			if !sawNaN {
				t.Fatalf("%s %v: no NaN in the result; the case does not exercise the contract", kindNames[kind], sh)
			}
		}
	}
}

// FuzzGEMMBitIdentity drives the differential check with fuzzed shapes,
// data seeds and value magnitudes (from subnormal to near overflow, where
// sums can reach ±Inf and NaN from finite inputs).
func FuzzGEMMBitIdentity(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(8), int64(1), uint8(0))
	f.Add(uint8(5), uint8(3), uint8(9), int64(2), uint8(1))
	f.Add(uint8(17), uint8(33), uint8(15), int64(3), uint8(2))
	f.Add(uint8(1), uint8(0), uint8(1), int64(4), uint8(3))
	f.Add(uint8(64), uint8(7), uint8(65), int64(5), uint8(4))
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, seed int64, scale uint8) {
		m, k, n := int(m8)%80, int(k8)%150, int(n8)%80
		rng := rand.New(rand.NewSource(seed))
		// scale picks the exponent range: 0 is N(0,1); larger values
		// spread magnitudes from 2^-1070 towards 2^1000.
		exp := func() float64 {
			if scale%5 == 0 {
				return 1
			}
			return math.Ldexp(1, rng.Intn(2070)-1070)
		}
		for kind := range numKinds {
			nn := n
			if kind == kindGram {
				nn = m
			}
			a, b := gemmOperands(rng, kind, m, k, nn)
			for i := range a {
				a[i] *= exp()
			}
			if kind != kindGram {
				for i := range b {
					b[i] *= exp()
				}
			}
			checkBitIdentical(t, kind, a, b, m, k, nn)
		}
	})
}

// TestMatMulZeroAllocSteadyState asserts the float64 kernels allocate
// nothing at a serial size or at a pool-split size.
func TestMatMulZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range []int{12, 96} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			a, b := Randn(rng, 1, d, d), Randn(rng, 1, d, d)
			dst := New(d, d)
			step := func() {
				MatMulInto(dst, a, b)
				MatMulT1Into(dst, a, b)
				MatMulT2Into(dst, a, b)
				GramInto(dst, a)
			}
			step() // warm the ranger pool
			if allocs := testing.AllocsPerRun(10, step); allocs != 0 && !testenv.RaceEnabled {
				t.Fatalf("float64 matmul kernels allocate %v times per step", allocs)
			}
		})
	}
}

// BenchmarkGEMM reports GFLOP/s of each float64 kernel, scalar oracle
// against the active kernel, at a square size, a preconditioning shape of
// the ResNet-14 benchmark workload (m×k×n) and its first-stage convolution
// shape: the forward and input-gradient products (T2, MatMul), the weight
// gradient (T1) and the activation covariance (Gram).
func BenchmarkGEMM(b *testing.B) {
	convShape := [numKinds][3]int{
		kindMatMul:   {8192, 16, 144},
		kindMatMulT1: {16, 8192, 144},
		kindMatMulT2: {8192, 144, 16},
		kindGram:     {144, 8192, 144},
	}
	for kind := range numKinds {
		for _, sh := range [][3]int{{256, 256, 256}, {64, 577, 577}, convShape[kind]} {
			m, k, n := sh[0], sh[1], sh[2]
			if kind == kindGram {
				m = n
			}
			rng := rand.New(rand.NewSource(1))
			a, bb := gemmOperands(rng, kind, m, k, n)
			dst := make([]float64, m*n)
			flops := 2 * float64(m*k*n)
			if kind == kindGram {
				flops /= 2
			}
			for _, impl := range []string{"scalar", "active"} {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", kindNames[kind], m, k, n, impl), func(b *testing.B) {
					if impl == "scalar" {
						saved := gemmKernels[kind]
						gemmKernels[kind] = scalarKernels[kind]
						defer func() { gemmKernels[kind] = saved }()
					}
					for b.Loop() {
						clear(dst)
						runKernel(kind, dst, a, bb, m, k, n)
					}
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}
