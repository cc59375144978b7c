package trainer

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/kfac"
	"repro/internal/testenv"
)

// runCompressedWorld2 trains the standard tiny task on two ranks with the
// given codec configuration and returns rank 0's final-epoch training loss.
// All runs share seeds, so any loss difference is purely the codec's doing.
func runCompressedWorld2(t *testing.T, codec comm.Codec, bare bool, epochs int) float64 {
	t.Helper()
	train, test := tinyDataset(t)
	results, err := runWorld(2, train, test, WithEpochs(epochs),
		WithKFACOptions(kfac.Options{
			FactorUpdateFreq: 2, InvUpdateFreq: 4, Damping: 0.01,
			Compression: codec, NoErrorFeedback: bare,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if l0, l1 := results[0].History[epochs-1].TrainLoss, results[1].History[epochs-1].TrainLoss; l0 != l1 {
		t.Fatalf("ranks disagree on final loss: %v vs %v", l0, l1)
	}
	return results[0].History[epochs-1].TrainLoss
}

// TestTopKErrorFeedbackConvergenceSafety is the convergence contract of the
// error-feedback wrapper: at sparsity levels where the bare (biased) Top-K
// estimator demonstrably stalls, the compensated stream must track the
// uncompressed run within a small loss tolerance. The compensated residual
// telescopes (comm.TestErrorFeedbackTelescopes proves the arithmetic
// identity); this test shows the identity buys actual training convergence.
// Table-driven over the sparsity fraction; the runs
// are deterministic, so the tolerances guard future algorithm changes, not
// noise.
func TestTopKErrorFeedbackConvergenceSafety(t *testing.T) {
	if testenv.Short() {
		t.Skip("multi-run convergence suite skipped in short mode")
	}
	const epochs = 24
	cases := []struct {
		name string
		k    float64
		// efTol bounds |EF loss − exact loss|.
		efTol float64
		// bareMinExcess, when > 0, is the amount by which the bare run's
		// loss must EXCEED exact+efTol — the "demonstrably diverges" side.
		bareMinExcess float64
	}{
		// 2% density is past the cliff: bare Top-K plateaus an order of
		// magnitude above the exact loss while EF recovers the dropped
		// mass (measured ~0.26 bare vs ~0.034 EF vs ~0.0046 exact).
		{name: "topk2pct", k: 0.02, efTol: 0.08, bareMinExcess: 0.08},
		// 3% density: EF is within noise of exact; bare is ~12× worse
		// but not catastrophic, so only the EF side is asserted.
		{name: "topk3pct", k: 0.03, efTol: 0.03},
	}
	exact := runCompressedWorld2(t, nil, false, epochs)
	for _, tc := range cases {
		codec := comm.TopKCodec{FractionK: tc.k}
		ef := runCompressedWorld2(t, codec, false, epochs)
		if d := math.Abs(ef - exact); d > tc.efTol {
			t.Errorf("%s: EF loss %.4f drifted %.4f from exact %.4f (tol %.3f)",
				tc.name, ef, d, exact, tc.efTol)
		}
		bare := runCompressedWorld2(t, codec, true, epochs)
		if bare <= ef {
			t.Errorf("%s: bare loss %.4f not worse than EF %.4f — sparsity not biting",
				tc.name, bare, ef)
		}
		if tc.bareMinExcess > 0 && bare-exact < tc.efTol+tc.bareMinExcess {
			t.Errorf("%s: bare loss %.4f did not diverge from exact %.4f (want excess > %.3f)",
				tc.name, bare, exact, tc.efTol+tc.bareMinExcess)
		}
	}
}

// TestFloat16CompressionTracksExact: the value-quantizing codec (no
// sparsification) needs no divergence foil — half-precision payloads plus
// error feedback must track the exact run tightly.
func TestFloat16CompressionTracksExact(t *testing.T) {
	epochs := testenv.Scale(6, 3)
	exact := runCompressedWorld2(t, nil, false, epochs)
	f16 := runCompressedWorld2(t, comm.Float16Codec{}, false, epochs)
	if d := math.Abs(f16 - exact); d > 0.05*(1+math.Abs(exact)) {
		t.Errorf("float16 loss %.4f vs exact %.4f (Δ %.4f)", f16, exact, d)
	}
}
