package kfac

import (
	"testing"

	"repro/internal/testenv"
)

// TestDistModesBitIdenticalAcrossWorlds is the acceptance gate for the
// distribution-plan refactor: at every world size, COMM-OPT, MEM-OPT, and
// HYBRID (f ∈ {0.25, 0.5}) must produce bit-identical same-seed
// preconditioned gradients to each other and to the default configuration
// (DistAuto over RoundRobin — the pre-refactor COMM-OPT reference path),
// on every rank. The modes move identical bits to
// different places (eigendecomposition is a pure function of the averaged
// factors, preconditioning a pure function of the eigenbases and the
// gradient, and broadcasts preserve bits), so any divergence is a plan
// bookkeeping bug.
func TestDistModesBitIdenticalAcrossWorlds(t *testing.T) {
	maxWorld := testenv.Scale(8, 4)
	const steps = 4
	base := Options{FactorUpdateFreq: 1, InvUpdateFreq: 2}
	type cfg struct {
		name     string
		strategy Strategy
		mode     DistMode
		frac     float64
	}
	cfgs := []cfg{
		{name: "commopt", mode: CommOpt},
		{name: "memopt", mode: MemOpt},
		{name: "hybrid25", mode: Hybrid, frac: 0.25},
		{name: "hybrid50", mode: Hybrid, frac: 0.5},
	}
	// Split A/G ownership under a second strategy too: SizeGreedy routinely
	// places a layer's factors on different owners, exercising the
	// owner→gradient-worker eigenbasis transfer. Placement only moves work,
	// never changes bits, so these still compare against the same
	// reference.
	cfgs = append(cfgs,
		cfg{name: "memopt_greedy", strategy: SizeGreedy, mode: MemOpt},
		cfg{name: "hybrid50_greedy", strategy: SizeGreedy, mode: Hybrid, frac: 0.5},
	)

	for world := 1; world <= maxWorld; world++ {
		ref := worldStepTrace(t, world, base, steps)
		for _, c := range cfgs {
			opts := base
			opts.Strategy = c.strategy
			opts.DistMode = c.mode
			opts.GradWorkerFrac = c.frac
			got := worldStepTrace(t, world, opts, steps)
			for r := range got {
				if len(got[r]) == 0 {
					t.Fatalf("world %d %s rank %d: empty trace", world, c.name, r)
				}
				for i := range got[r] {
					if !got[r][i].Equal(ref[r][i], 0) {
						t.Errorf("world %d %s rank %d layer %d: gradients differ from reference (exact comparison)",
							world, c.name, r, i)
					}
				}
			}
		}
	}
}
