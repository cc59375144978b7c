package linalg

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestSymMulBitIdenticalToMatMulT1 is the kernel-equality gate: the blocked
// symmetric multiply must reproduce the general matmul bit for bit — zero
// tolerance — across shapes small enough for the serial path and large
// enough to fan out over the shared pool, including matrices with exact
// zeros (the skip path).
func TestSymMulBitIdenticalToMatMulT1(t *testing.T) {
	shapes := []struct{ k, m int }{
		{1, 1}, {3, 2}, {7, 5}, {16, 16}, {33, 9},
		{128, 64},  // serial path
		{600, 220}, // parallel path: 220·220·600/2 ≈ 14.5M madds
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh.k*1000 + sh.m)))
		a := tensor.Randn(rng, 1, sh.k, sh.m)
		// Sprinkle exact zeros so the zero-skip branch is exercised.
		for i := 0; i < len(a.Data); i += 7 {
			a.Data[i] = 0
		}
		want := tensor.New(sh.m, sh.m)
		tensor.MatMulT1Into(want, a, a)
		got := SymMulT1(a)
		if !got.SameShape(want) {
			t.Fatalf("k=%d m=%d: shape %v, want %v", sh.k, sh.m, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("k=%d m=%d: element %d differs: %x vs %x",
					sh.k, sh.m, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestSymMulIntoReuse: repeated in-place use over the same destination must
// fully overwrite previous results.
func TestSymMulIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dst := tensor.New(6, 6)
	dst.Fill(999)
	a := tensor.Randn(rng, 1, 9, 6)
	SymMulT1Into(dst, a)
	want := tensor.New(6, 6)
	tensor.MatMulT1Into(want, a, a)
	if !dst.Equal(want, 0) {
		t.Error("SymMulT1Into did not overwrite stale destination contents")
	}
}

// TestSymEigIntoReuseMatchesFresh: refreshing one Eigen in place across
// several matrices must give exactly the results of fresh decompositions.
func TestSymEigIntoReuseMatchesFresh(t *testing.T) {
	var reused Eigen
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + int(seed)*5 // varying sizes force Q/Values regrowth
		m := tensor.Randn(rng, 1, n, n)
		spd := SymMulT1(m)
		if err := SymEigInto(spd, &reused); err != nil {
			t.Fatal(err)
		}
		fresh, err := SymEig(spd)
		if err != nil {
			t.Fatal(err)
		}
		if !reused.Q.Equal(fresh.Q, 0) {
			t.Errorf("seed %d: reused Q differs from fresh", seed)
		}
		for i := range fresh.Values {
			if reused.Values[i] != fresh.Values[i] {
				t.Errorf("seed %d: eigenvalue %d differs", seed, i)
			}
		}
	}
}

// TestSymEigIntoRejectsNaNWithoutClobbering: a NaN input must fail before
// the previous decomposition stored in the Eigen is touched.
func TestSymEigIntoRejectsNaNWithoutClobbering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	spd := SymMulT1(tensor.Randn(rng, 1, 6, 6))
	var eg Eigen
	if err := SymEigInto(spd, &eg); err != nil {
		t.Fatal(err)
	}
	q0 := eg.Q.Clone()
	bad := spd.Clone()
	bad.Data[3] = nan()
	if err := SymEigInto(bad, &eg); err == nil {
		t.Fatal("NaN input accepted")
	}
	if !eg.Q.Equal(q0, 0) {
		t.Error("failed decomposition clobbered the previous result")
	}
}

func nan() float64 { z := 0.0; return z / z }
