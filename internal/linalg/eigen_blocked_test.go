package linalg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testenv"
)

// blockedDims covers the blocked path proper (≥ eigBlockedMinDim),
// including odd sizes that exercise the remainder panel and the final
// narrow panel, plus one multiple-of-b size.
var blockedDims = []int{130, 161, 256, 293}

func maxAbsRowSum(a *tensor.Tensor) float64 {
	n := a.Rows()
	worst := 0.0
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += math.Abs(a.Data[i*n+j])
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

func TestSymEigBlockedReconstruct(t *testing.T) {
	for _, n := range blockedDims {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randSPD(rng, n, 0.1)
		var eg Eigen
		if err := SymEigBlockedInto(a, &eg, 4); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		r := eg.Reconstruct()
		tol := 1e-12 * float64(n) * maxAbsRowSum(a)
		if !r.Equal(a, tol) {
			t.Errorf("n=%d: QΛQᵀ does not reconstruct A within %g", n, tol)
		}
	}
}

func TestSymEigBlockedOrthonormal(t *testing.T) {
	n := 161
	rng := rand.New(rand.NewSource(42))
	a := randSPD(rng, n, 0.01)
	var eg Eigen
	if err := SymEigBlockedInto(a, &eg, 4); err != nil {
		t.Fatal(err)
	}
	// QᵀQ = I.
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var dot float64
			for k := 0; k < n; k++ {
				dot += eg.Q.Data[k*n+i] * eg.Q.Data[k*n+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-12*float64(n) {
				t.Fatalf("QᵀQ[%d,%d] = %v, want %v", i, j, dot, want)
			}
		}
	}
}

// TestSymEigBlockedValuesMatchSerial bounds the eigenvalue disagreement
// between the blocked and serial solvers by the backward-stability bound
// c·n·eps·‖A‖ both algorithms individually satisfy.
func TestSymEigBlockedValuesMatchSerial(t *testing.T) {
	for _, n := range blockedDims {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		a := randSPD(rng, n, 0.1)
		serial, err := SymEig(a)
		if err != nil {
			t.Fatalf("n=%d serial: %v", n, err)
		}
		var blocked Eigen
		if err := SymEigBlockedInto(a, &blocked, 4); err != nil {
			t.Fatalf("n=%d blocked: %v", n, err)
		}
		const eps = 2.220446049250313e-16
		tol := 64 * float64(n) * eps * maxAbsRowSum(a)
		for i := range serial.Values {
			if d := math.Abs(serial.Values[i] - blocked.Values[i]); d > tol {
				t.Errorf("n=%d: eigenvalue %d differs by %g (tol %g): serial %v blocked %v",
					n, i, d, tol, serial.Values[i], blocked.Values[i])
			}
		}
	}
}

// TestSymEigBlockedDeterministicAcrossTeams is the core contract: the
// same input must produce bitwise-identical Q and Λ for every team size
// and on repeated calls, so SPMD ranks with heterogeneous team
// assignments stay in lockstep.
func TestSymEigBlockedDeterministicAcrossTeams(t *testing.T) {
	for _, n := range []int{130, 256} {
		rng := rand.New(rand.NewSource(int64(n) + 2))
		a := randSPD(rng, n, 0.1)
		var ref Eigen
		if err := SymEigBlockedInto(a, &ref, 1); err != nil {
			t.Fatal(err)
		}
		refQ := append([]float64(nil), ref.Q.Data...)
		refV := append([]float64(nil), ref.Values...)
		for team := 1; team <= 8; team++ {
			for rep := 0; rep < 2; rep++ {
				var eg Eigen
				if err := SymEigBlockedInto(a, &eg, team); err != nil {
					t.Fatalf("n=%d team=%d: %v", n, team, err)
				}
				for i, v := range eg.Values {
					if math.Float64bits(v) != math.Float64bits(refV[i]) {
						t.Fatalf("n=%d team=%d rep=%d: eigenvalue %d not bitwise equal", n, team, rep, i)
					}
				}
				for i, v := range eg.Q.Data {
					if math.Float64bits(v) != math.Float64bits(refQ[i]) {
						t.Fatalf("n=%d team=%d rep=%d: Q[%d] not bitwise equal", n, team, rep, i)
					}
				}
			}
		}
	}
}

// TestSymEigBlockedSmallFallback checks that below eigBlockedMinDim the
// blocked entry point is bitwise the serial solver for every team size —
// small factors must not depend on team assignment at all.
func TestSymEigBlockedSmallFallback(t *testing.T) {
	for _, n := range []int{1, 2, 17, 64, 127} {
		rng := rand.New(rand.NewSource(int64(n) + 3))
		a := randSPD(rng, n, 0.1)
		var serial Eigen
		if err := SymEigInto(a, &serial); err != nil {
			t.Fatal(err)
		}
		for _, team := range []int{1, 8} {
			var eg Eigen
			if err := SymEigBlockedInto(a, &eg, team); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i := range serial.Values {
				if math.Float64bits(serial.Values[i]) != math.Float64bits(eg.Values[i]) {
					t.Fatalf("n=%d team=%d: fallback eigenvalue %d differs from serial", n, team, i)
				}
			}
			for i := range serial.Q.Data {
				if math.Float64bits(serial.Q.Data[i]) != math.Float64bits(eg.Q.Data[i]) {
					t.Fatalf("n=%d team=%d: fallback Q[%d] differs from serial", n, team, i)
				}
			}
		}
	}
}

// TestSymEigBlockedDiagonal drives every Householder column through the
// scale==0 (zero column) branch: a diagonal input is already tridiagonal.
func TestSymEigBlockedDiagonal(t *testing.T) {
	n := 161
	a := tensor.New(n, n)
	rng := rand.New(rand.NewSource(5))
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()*10 - 5
		a.Data[i*n+i] = v
		want[i] = v
	}
	var eg Eigen
	if err := SymEigBlockedInto(a, &eg, 4); err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), want...)
	for i := 0; i < n-1; i++ { // selection sort, to mirror the solver
		k := i
		for j := i + 1; j < n; j++ {
			if sorted[j] < sorted[k] {
				k = j
			}
		}
		sorted[i], sorted[k] = sorted[k], sorted[i]
	}
	for i := range sorted {
		if math.Abs(eg.Values[i]-sorted[i]) > 1e-12 {
			t.Fatalf("diagonal eigenvalue %d = %v, want %v", i, eg.Values[i], sorted[i])
		}
	}
	r := eg.Reconstruct()
	if !r.Equal(a, 1e-10) {
		t.Fatal("diagonal input does not reconstruct")
	}
}

func TestSymEigBlockedRejectsBadInput(t *testing.T) {
	if err := SymEigBlockedInto(tensor.New(3, 4), &Eigen{}, 2); err == nil {
		t.Fatal("expected error for non-square input")
	}
	a := tensor.New(4, 4)
	a.Data[5] = math.NaN()
	if err := SymEigBlockedInto(a, &Eigen{}, 2); err == nil {
		t.Fatal("expected error for NaN input")
	}
	a.Data[5] = math.Inf(1)
	if err := SymEigBlockedInto(a, &Eigen{}, 2); err == nil {
		t.Fatal("expected error for Inf input")
	}
}

// TestSymEigBlockedKernelTimes checks that the timed variant attributes
// wall time to all three blocked kernels on a blocked-path input.
func TestSymEigBlockedKernelTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSPD(rng, 192, 0.1)
	var eg Eigen
	var tm EigKernelTimes
	if err := SymEigBlockedTimedInto(a, &eg, 2, &tm); err != nil {
		t.Fatal(err)
	}
	if tm.TridiagNS <= 0 || tm.BackAccumNS <= 0 || tm.QLNS <= 0 {
		t.Fatalf("kernel times not populated: %+v", tm)
	}
	if tm.TotalNS() != tm.TridiagNS+tm.BackAccumNS+tm.QLNS {
		t.Fatalf("TotalNS mismatch: %+v", tm)
	}
}

// TestSymEigBlockedSteadyStateZeroAllocs verifies the arena + pool
// workspace routing: after warmup, repeated decompositions into the same
// Eigen target allocate nothing.
func TestSymEigBlockedSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSPD(rng, 160, 0.1)
	var eg Eigen
	for i := 0; i < 3; i++ {
		if err := SymEigBlockedInto(a, &eg, 2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := SymEigBlockedInto(a, &eg, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 && !testenv.RaceEnabled {
		t.Fatalf("steady-state SymEigBlockedInto allocates %.1f/op, want 0", allocs)
	}
}
