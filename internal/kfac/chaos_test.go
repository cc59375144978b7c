package kfac

import (
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// chaosStepTrace is stepTrace over a chaos-wrapped in-process world.
func chaosStepTrace(t *testing.T, p int, cfg comm.ChaosConfig, opts Options, steps int) [][]*tensor.Tensor {
	t.Helper()
	fab := comm.NewChaosFabric(comm.NewInprocFabric(p), p, cfg)
	out := make([][]*tensor.Tensor, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r] = stepTrace(t, comm.NewCommunicator(fab.Endpoint(r)), opts, steps)
		}(r)
	}
	wg.Wait()
	return out
}

// TestStepBitIdenticalUnderLatencyChaos is the acceptance property for the
// chaos layer: an injected-latency-only schedule perturbs timing —
// reordering completions of the fused factor allreduce's in-flight chunks
// — but Step must still produce parameters bit-identical to a chaos-free
// run. The one-byte fusion budget puts every factor in a chunk of its own,
// so many chunks are in flight at once.
func TestStepBitIdenticalUnderLatencyChaos(t *testing.T) {
	const p = 3
	const steps = 6
	chaosCfg := comm.ChaosConfig{
		Seed:       17,
		MinLatency: 5 * time.Microsecond,
		MaxLatency: 200 * time.Microsecond,
	}
	for _, fusion := range []int{0, 1} {
		base := Options{FactorUpdateFreq: 2, InvUpdateFreq: 4, FusionBytes: fusion}
		want := chaosStepTrace(t, p, comm.ChaosConfig{}, base, steps) // clean reference

		for name, got := range map[string][][]*tensor.Tensor{
			"latency chaos": chaosStepTrace(t, p, chaosCfg, base, steps),
			"latency chaos, different seed": chaosStepTrace(t, p,
				comm.ChaosConfig{Seed: 99, MinLatency: time.Microsecond, MaxLatency: 500 * time.Microsecond},
				base, steps),
		} {
			for r := 0; r < p; r++ {
				for i := range want[r] {
					if !want[r][i].Equal(got[r][i], 0) {
						t.Errorf("fusion %d B, %s: rank %d layer %d differs from clean run (exact comparison)",
							fusion, name, r, i)
					}
				}
			}
		}
	}
}

// TestRebindToSmallerWorld: after an elastic resize the preconditioner
// must re-place every factor for the new world and keep stepping.
func TestRebindToSmallerWorld(t *testing.T) {
	const p = 2
	fab := comm.NewInprocFabric(p)
	opts := Options{FactorUpdateFreq: 1, InvUpdateFreq: 1}

	precs := make([]*Preconditioner, p)
	nets := make([]*nn.Sequential, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			nets[r] = buildTinyNet(42)
			precs[r] = NewFromOptions(nets[r], comm.NewCommunicator(fab.Endpoint(r)), opts)
			for i := 0; i < 3; i++ {
				runStep(nets[r], int64(2000+i), 4)
				if err := precs[r].Step(0.1); err != nil {
					t.Errorf("rank %d step %d: %v", r, i, err)
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Before the resize, placement spans both workers.
	spread := false
	for _, s := range precs[0].states {
		if s.aWorker != 0 || s.gWorker != 0 {
			spread = true
		}
	}
	if !spread {
		t.Fatal("expected some factors placed on worker 1 before the resize")
	}

	// Rank 1 dies; rank 0 rebinds to a single-rank world. Every factor
	// must be re-placed onto worker 0 and stepping must proceed without
	// the (now impossible) cross-rank allgather.
	survivor := precs[0]
	survivor.Rebind(nil)
	for _, s := range survivor.states {
		if s.aWorker != 0 || s.gWorker != 0 {
			t.Fatalf("factor still placed on a dead worker after Rebind: A→%d G→%d", s.aWorker, s.gWorker)
		}
	}
	runStep(nets[0], 3000, 4)
	if err := survivor.Step(0.1); err != nil {
		t.Fatalf("post-rebind step: %v", err)
	}
}

// TestRebindLayerWiseClearsDecompositions: LayerWise keeps decompositions
// only on their owner, so a resize must drop them and force a rebuild at
// the next step.
func TestRebindLayerWiseClearsDecompositions(t *testing.T) {
	net := buildTinyNet(42)
	prec := NewFromOptions(net, nil, Options{Strategy: LayerWise, FactorUpdateFreq: 1, InvUpdateFreq: 1})
	runStep(net, 1, 4)
	if err := prec.Step(0.1); err != nil {
		t.Fatal(err)
	}
	if prec.states[0].eigA == nil {
		t.Fatal("expected decompositions after the first step")
	}
	prec.Rebind(nil)
	for i, s := range prec.states {
		if s.eigA != nil || s.eigG != nil || s.invA != nil || s.invG != nil {
			t.Fatalf("layer %d: stale decomposition survived a LayerWise rebind", i)
		}
	}
	if prec.StepCount() != 0 {
		t.Fatalf("step counter %d after LayerWise rebind, want 0 (forces rebuild)", prec.StepCount())
	}
	// The very next step must rebuild decompositions before preconditioning.
	runStep(net, 2, 4)
	if err := prec.Step(0.1); err != nil {
		t.Fatalf("post-rebind step: %v", err)
	}
}
