// Package sched provides the concurrency primitives the compute kernels and
// the K-FAC eig scheduler are built from: the shared worker Pool, whose only
// entry point is the zero-allocation ForEach range dispatch, and an
// error-collecting Group for goroutines that may block.
//
// The split matters for deadlock freedom: Pool workers must never block on
// other work (they run leaf compute), while Group goroutines are unbounded
// and may block on channels, semaphores, or collective handles.
package sched

import (
	"runtime"
	"sync"
)

// Pool is a fixed set of worker goroutines that run ForEach range chunks.
// The process has one, returned by Shared.
type Pool struct {
	rjobs chan rangeJob
}

// newPool starts a pool with the given concurrency; workers <= 0 selects
// runtime.GOMAXPROCS(0). The workers live for the rest of the process.
func newPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Buffer a healthy queue so callers rarely need the inline path.
	p := &Pool{rjobs: make(chan rangeJob, 4*workers)}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for rj := range p.rjobs {
		rj.r.RunRange(rj.lo, rj.hi)
		rj.done.Done()
	}
}

// Ranger is a leaf compute kernel over a half-open row range. Implementations
// are typically small reusable structs (drawn from a sync.Pool by the caller)
// carrying the kernel's operands, so a ForEach dispatch allocates nothing.
type Ranger interface {
	RunRange(lo, hi int)
}

// rangeJob is one ForEach chunk. It travels by value through a buffered
// channel, so dispatching a chunk performs no heap allocation.
type rangeJob struct {
	r      Ranger
	lo, hi int
	done   *sync.WaitGroup
}

// ForEach splits [0, m) into up to nchunks contiguous ranges, runs them on
// the pool's workers, and blocks until all complete. done is caller-provided
// scratch (usually embedded in the Ranger) and must have a zero count on
// entry. When the job queue is full the caller runs the chunk inline, so
// ForEach never spawns goroutines and never allocates — the property the
// zero-allocation tensor kernels rely on.
//
// Ranges must be pure leaf compute: a RunRange that itself called ForEach
// on the same pool could leave every worker blocked waiting for chunks
// nobody can run.
func (p *Pool) ForEach(m, nchunks int, r Ranger, done *sync.WaitGroup) {
	if m <= 0 {
		return
	}
	if nchunks > m {
		nchunks = m
	}
	if nchunks <= 1 {
		r.RunRange(0, m)
		return
	}
	chunk := (m + nchunks - 1) / nchunks
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		done.Add(1)
		select {
		case p.rjobs <- rangeJob{r: r, lo: lo, hi: hi, done: done}:
		default:
			// Queue full: run inline rather than block or spawn.
			r.RunRange(lo, hi)
			done.Done()
		}
	}
	done.Wait()
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide compute pool used by the blocked
// linear-algebra kernels in internal/tensor and internal/linalg. It is
// created on first use with GOMAXPROCS workers and is never closed.
//
// Ranges run on the shared pool must be pure leaf compute (see ForEach).
// Blocking work belongs on a Group.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = newPool(0) })
	return sharedPool
}

// Group runs goroutines that may block (on channels, semaphores, or network
// handles) and collects the first error — errgroup with no external
// dependency. The zero value is ready to use.
type Group struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// Go runs fn on its own goroutine.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
		}
	}()
}

// Err returns the first recorded error without waiting.
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Wait blocks until every goroutine started with Go has returned, then
// reports the first error.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.Err()
}
