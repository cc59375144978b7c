package linalg

// Reentrancy tests for the kernels the K-FAC eig scheduler calls from
// several goroutines at once. Run with -race: the assertions check both
// freedom from data races and that concurrent results are bit-identical to
// serial ones (K-FAC's cross-world bit-identity depends on it).

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// spdMatrices builds n random symmetric positive-definite matrices.
func spdMatrices(n, dim int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Tensor, n)
	for i := range out {
		m := tensor.Randn(rng, 1, dim, dim)
		spd := tensor.MatMulT1(m, m)
		for d := 0; d < dim; d++ {
			spd.Data[d*dim+d] += 1
		}
		out[i] = spd
	}
	return out
}

func TestConcurrentSymEigMatchesSerial(t *testing.T) {
	mats := spdMatrices(16, 12, 1)
	serial := make([]*Eigen, len(mats))
	for i, m := range mats {
		eg, err := SymEig(m)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = eg
	}
	concurrent := make([]*Eigen, len(mats))
	errs := make([]error, len(mats))
	var wg sync.WaitGroup
	for i, m := range mats {
		wg.Add(1)
		go func(i int, m *tensor.Tensor) {
			defer wg.Done()
			concurrent[i], errs[i] = SymEig(m)
		}(i, m)
	}
	wg.Wait()
	for i := range mats {
		if errs[i] != nil {
			t.Fatalf("matrix %d: %v", i, errs[i])
		}
		if !concurrent[i].Q.Equal(serial[i].Q, 0) {
			t.Errorf("matrix %d: concurrent Q differs from serial", i)
		}
		for j := range serial[i].Values {
			if concurrent[i].Values[j] != serial[i].Values[j] {
				t.Errorf("matrix %d: concurrent eigenvalue %d differs", i, j)
			}
		}
	}
}

func TestConcurrentSymEigSharedInput(t *testing.T) {
	// Many goroutines decomposing the SAME (unmutated) matrix must neither
	// race nor disagree — SymEig works on a private symmetrized copy.
	m := spdMatrices(1, 10, 2)[0]
	ref, err := SymEig(m)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eg, err := SymEig(m)
			if err != nil {
				t.Error(err)
				return
			}
			if !eg.Q.Equal(ref.Q, 0) {
				t.Error("shared-input decomposition differs")
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentInverseDampedMatchesSerial(t *testing.T) {
	mats := spdMatrices(16, 10, 3)
	const gamma = 1e-3
	serial := make([]*tensor.Tensor, len(mats))
	for i, m := range mats {
		inv, err := InverseDamped(m, gamma)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = inv
	}
	concurrent := make([]*tensor.Tensor, len(mats))
	errs := make([]error, len(mats))
	var wg sync.WaitGroup
	for i, m := range mats {
		wg.Add(1)
		go func(i int, m *tensor.Tensor) {
			defer wg.Done()
			concurrent[i], errs[i] = InverseDamped(m, gamma)
		}(i, m)
	}
	wg.Wait()
	for i := range mats {
		if errs[i] != nil {
			t.Fatalf("matrix %d: %v", i, errs[i])
		}
		if !concurrent[i].Equal(serial[i], 0) {
			t.Errorf("matrix %d: concurrent inverse differs from serial", i)
		}
	}
}
