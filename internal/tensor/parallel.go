package tensor

import (
	"runtime"
	"sync"

	"repro/internal/sched"
)

// kernelKind selects the row kernel a matRanger dispatches to.
type kernelKind uint8

const (
	kindMatMul kernelKind = iota
	kindMatMulT1
	kindMatMulT2
	kindGram
	numKinds
)

// rangeKernel computes rows [lo,hi) of one m×n product with inner
// dimension k (see the scalar kernels in matmul.go for each kind's operand
// layout).
type rangeKernel func(dst, a, b []float64, lo, hi, m, k, n int)

// gemmKernels is the float64 kernel table. The scalar kernels are the
// default; the amd64 init swaps in the register-tiled AVX2 kernels when the
// CPU supports them. The choice is global per process, so every range of
// every product runs the same kernel.
var gemmKernels = [numKinds]rangeKernel{
	kindMatMul:   matmulRange,
	kindMatMulT1: matmulT1Range,
	kindMatMulT2: matmulT2Range,
	kindGram:     gramRange,
}

// matRanger carries one blocked-matmul dispatch through the shared compute
// pool. Instances are recycled via matRangerPool so a parallel kernel launch
// performs zero heap allocations; the embedded WaitGroup is the completion
// scratch sched.Pool.ForEach requires.
type matRanger struct {
	wg        sync.WaitGroup
	kernel    rangeKernel
	dst, a, b []float64
	m, k, n   int
}

// RunRange implements sched.Ranger: rows [lo, hi) of the selected kernel.
// Ranges are disjoint, and every destination element is produced by exactly
// one range with the same per-element arithmetic as a serial run, so results
// are bit-identical regardless of worker count.
func (r *matRanger) RunRange(lo, hi int) {
	r.kernel(r.dst, r.a, r.b, lo, hi, r.m, r.k, r.n)
}

var matRangerPool = sync.Pool{New: func() any { return new(matRanger) }}

// runKernel executes one matmul-family kernel over rows [0, m), splitting
// across the shared compute pool when the multiply-add count is large enough
// to amortize dispatch.
func runKernel(kind kernelKind, dst, a, b []float64, m, k, n int) {
	kernel := gemmKernels[kind]
	nw := runtime.GOMAXPROCS(0)
	work, chunks := m*n*k, nw
	if kind == kindGram {
		// Row i of the upper triangle carries m−i products, so equal row
		// counts are imbalanced; smaller chunks let the pool level the load.
		work, chunks = work/2, 4*nw
	}
	if work < parallelThreshold || nw <= 1 || m < 2 {
		kernel(dst, a, b, 0, m, m, k, n)
		return
	}
	r := matRangerPool.Get().(*matRanger)
	r.kernel, r.dst, r.a, r.b, r.m, r.k, r.n = kernel, dst, a, b, m, k, n
	sched.Shared().ForEach(m, chunks, r, &r.wg)
	r.dst, r.a, r.b = nil, nil, nil // don't pin operand memory in the pool
	matRangerPool.Put(r)
}
