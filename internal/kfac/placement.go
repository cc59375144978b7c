package kfac

import (
	"sort"

	"repro/internal/linalg"
)

// Strategy selects how K-FAC work is distributed across workers (§IV-B,
// §VI-C3).
type Strategy int

const (
	// RoundRobin assigns each factor (A and G independently) to workers in
	// a greedy round-robin order. This is the paper's K-FAC-opt scheme: A
	// and G of the same layer can land on different workers, doubling
	// worker utilization relative to layer-wise distribution.
	RoundRobin Strategy = iota
	// LayerWise assigns whole layers to workers (Osawa et al.; the paper's
	// K-FAC-lw baseline): one worker computes both eigendecompositions and
	// the preconditioned gradient for its layers, then broadcasts the
	// result every iteration.
	LayerWise
	// SizeGreedy is the placement policy the paper proposes in §VI-C4 as
	// future work: factors are sorted by estimated eigendecomposition cost
	// (descending) and each is assigned to the currently least-loaded
	// worker, balancing aggregate cost instead of factor counts.
	SizeGreedy
)

// String returns the scheme name used in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "K-FAC-opt"
	case LayerWise:
		return "K-FAC-lw"
	case SizeGreedy:
		return "K-FAC-greedy"
	}
	return "unknown"
}

// FactorRef identifies one Kronecker factor for placement purposes.
type FactorRef struct {
	Layer int  // layer index
	IsG   bool // false = A factor, true = G factor
	Dim   int  // matrix dimension
}

// Cost returns the modeled eigendecomposition cost of the factor.
func (f FactorRef) Cost() float64 { return linalg.EigFLOPs(f.Dim) }

// Assign maps each factor (placement order) to an owner in [0, workers)
// under the given strategy; an unknown strategy assigns round-robin. The
// result is a deterministic pure function of the arguments, so every rank
// computes the same assignment without communication (Algorithm 1,
// line 9).
func Assign(strategy Strategy, factors []FactorRef, workers int) []int {
	if workers < 1 {
		workers = 1
	}
	out := make([]int, len(factors))
	switch strategy {
	case LayerWise:
		// K-FAC-lw: both factors of a layer land on the same owner.
		for i, f := range factors {
			out[i] = f.Layer % workers
		}
	case SizeGreedy:
		// §VI-C4: factors in descending modeled eigendecomposition cost,
		// each to the least-loaded owner (longest-processing-time-first).
		order := make([]int, len(factors))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return factors[order[a]].Cost() > factors[order[b]].Cost()
		})
		load := make([]float64, workers)
		for _, idx := range order {
			best := 0
			for w := 1; w < workers; w++ {
				if load[w] < load[best] {
					best = w
				}
			}
			out[idx] = best
			load[best] += factors[idx].Cost()
		}
	default:
		// K-FAC-opt: A and G of a layer are placed independently.
		for i := range factors {
			out[i] = i % workers
		}
	}
	return out
}

// WorkerLoads aggregates the modeled eigendecomposition cost assigned to
// each worker. The spread between min and max load is what Table VI
// measures via min/max worker speedups.
func WorkerLoads(factors []FactorRef, assign []int, workers int) []float64 {
	loads := make([]float64, workers)
	for i, f := range factors {
		loads[assign[i]] += f.Cost()
	}
	return loads
}

// LoadStats returns the minimum, maximum and mean of non-trivial worker
// loads. Workers with zero assigned cost count toward min (idle workers are
// exactly the §IV scaling concern).
func LoadStats(loads []float64) (minLoad, maxLoad, mean float64) {
	if len(loads) == 0 {
		return 0, 0, 0
	}
	minLoad, maxLoad = loads[0], loads[0]
	var sum float64
	for _, l := range loads {
		if l < minLoad {
			minLoad = l
		}
		if l > maxLoad {
			maxLoad = l
		}
		sum += l
	}
	return minLoad, maxLoad, sum / float64(len(loads))
}

// ParamsPerWorker returns the total parameter count (Σ dimA·dimG per layer)
// assigned to each worker under a layer-oriented view: a layer's parameters
// are attributed to the worker owning its G factor (the preconditioning
// side). Used to reproduce the §VI-C4 parameter-imbalance observation.
func ParamsPerWorker(factors []FactorRef, assign []int, workers int, layerParams map[int]int) []int {
	out := make([]int, workers)
	for i, f := range factors {
		if f.IsG {
			out[assign[i]] += layerParams[f.Layer]
		}
	}
	return out
}
