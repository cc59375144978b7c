package ctl

import (
	"fmt"

	"repro/internal/kfac"
	"repro/internal/simulate"
)

// Fleet declares the shared worker pool the daemon schedules over: how many
// workers exist and how much memory each one offers K-FAC's resident
// decomposition state.
type Fleet struct {
	// Workers is the total worker count; the sum of running jobs' World
	// quotas never exceeds it.
	Workers int `json:"workers"`
	// MemoryPerWorker is each worker's declared byte budget for resident
	// eigendecompositions. 0 disables the memory check (workers-only
	// admission).
	MemoryPerWorker int64 `json:"memory_per_worker,omitempty"`
}

// decompBytesPerElem is the storage width of one resident decomposition
// element: the preconditioner holds its decompositions in float64.
const decompBytesPerElem = 8

// AdmissionError reports why a job cannot fit the fleet. It is terminal:
// the job's footprint is a property of its spec, so waiting cannot cure it.
type AdmissionError struct {
	// Reason is the human-readable rejection, naming the numbers involved.
	Reason string
}

// Error returns the rejection reason.
func (e *AdmissionError) Error() string { return "ctl: admission rejected: " + e.Reason }

// Admit decides whether a validated spec can ever run on the fleet. It
// checks the worker quota (World ≤ fleet.Workers) and, when the fleet
// declares per-worker memory, models the job's exact K-FAC distribution
// plan via kfac.BuildPlan and rejects if any rank's resident decomposition
// footprint (Plan.DecompElemsPerRank × 8 bytes) exceeds the budget. Jobs
// without K-FAC skip the memory check. A nil return admits the job; a
// non-nil return is an *AdmissionError.
func Admit(spec *JobSpec, fleet Fleet) error {
	if fleet.Workers < 1 {
		return &AdmissionError{Reason: "fleet has no workers"}
	}
	if spec.World > fleet.Workers {
		return &AdmissionError{Reason: fmt.Sprintf(
			"job wants %d workers but the fleet has %d", spec.World, fleet.Workers)}
	}
	if spec.KFAC == nil || fleet.MemoryPerWorker <= 0 {
		return nil
	}
	refs, err := spec.Model.FactorRefs()
	if err != nil {
		return &AdmissionError{Reason: err.Error()}
	}
	mode, err := spec.KFAC.distMode()
	if err != nil {
		return &AdmissionError{Reason: err.Error()}
	}
	plan := kfac.BuildPlan(kfac.RoundRobin, mode, spec.KFAC.GradWorkerFrac, refs, spec.World)
	var worst int64
	var worstRank int
	for r, elems := range plan.DecompElemsPerRank(refs) {
		if b := elems * decompBytesPerElem; b > worst {
			worst, worstRank = b, r
		}
	}
	if worst > fleet.MemoryPerWorker {
		reason := fmt.Sprintf(
			"K-FAC plan (%s, world %d) needs %d bytes of decomposition memory on rank %d "+
				"but each worker offers %d",
			plan.Mode, spec.World, worst, worstRank, fleet.MemoryPerWorker)
		// The scale planner prices the full candidate grid with the same
		// memory arithmetic; when a configuration fits, name it so the
		// rejection is actionable in one spec edit.
		if hint, err := PlacementHint(spec, fleet, simulate.DefaultTopology()); err == nil && hint.FitsBudget {
			reason += fmt.Sprintf("; planner hint: dist_mode=%s", hint.DistMode)
			if hint.GradWorkerFrac > 0 {
				reason += fmt.Sprintf(" grad_worker_frac=%g", hint.GradWorkerFrac)
			}
			reason += fmt.Sprintf(" fits at %d bytes/worker", hint.PredictedMemBytes)
		} else {
			reason += "; use dist_mode memopt or hybrid, or shrink the model"
		}
		return &AdmissionError{Reason: reason}
	}
	return nil
}
