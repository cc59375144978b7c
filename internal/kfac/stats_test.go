package kfac

import (
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
)

// TestStageStatsAreWallTime: the five stage fields are wall time, so over
// Steps that update factors and decompositions every iteration their sum
// can never exceed the wall time of those Steps measured from outside —
// on every rank of a distributed world, where every stage (including both
// communication phases) runs.
func TestStageStatsAreWallTime(t *testing.T) {
	const p = 2
	const steps = 5
	fab := comm.NewInprocFabric(p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			net := buildTinyNet(42)
			prec := NewFromOptions(net, comm.NewCommunicator(fab.Endpoint(r)),
				Options{FactorUpdateFreq: 1, InvUpdateFreq: 1})
			var wall time.Duration
			for i := 0; i < steps; i++ {
				runStep(net, int64(1000+i), 4)
				start := time.Now()
				if err := prec.Step(0.1); err != nil {
					t.Error(err)
					return
				}
				wall += time.Since(start)
			}
			snap := prec.Stats().Snapshot()
			if snap.Steps != steps || snap.FactorUpdates != steps || snap.EigUpdates != steps {
				t.Errorf("rank %d: steps/factor/eig updates = %d/%d/%d, want %d each",
					r, snap.Steps, snap.FactorUpdates, snap.EigUpdates, steps)
			}
			stages := snap.FactorCompute + snap.FactorComm + snap.EigCompute + snap.EigComm + snap.Precondition
			if stages <= 0 || stages > wall {
				t.Errorf("rank %d: stage sum %v not in (0, measured Step wall %v]", r, stages, wall)
			}
		}(r)
	}
	wg.Wait()
}
