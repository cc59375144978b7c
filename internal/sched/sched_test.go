package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testenv"
)

// countRanger records how many times each index of [0, len(hits)) runs.
type countRanger struct {
	hits   []atomic.Int32
	chunks atomic.Int32
	wg     sync.WaitGroup
}

func (c *countRanger) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		c.hits[i].Add(1)
	}
	c.chunks.Add(1)
}

// checkOnce fails unless every index ran exactly once.
func (c *countRanger) checkOnce(t *testing.T, label string) {
	t.Helper()
	for i := range c.hits {
		if n := c.hits[i].Load(); n != 1 {
			t.Fatalf("%s: index %d ran %d times, want 1", label, i, n)
		}
	}
}

// ForEach runs every index of [0, m) exactly once, whatever the chunking.
func TestPoolRunsAllTasks(t *testing.T) {
	p := newPool(3)
	for _, m := range []int{0, 1, 7, 1000} {
		for _, nchunks := range []int{1, 3, m + 5} {
			t.Run(fmt.Sprintf("m=%d/nchunks=%d", m, nchunks), func(t *testing.T) {
				r := &countRanger{hits: make([]atomic.Int32, m)}
				p.ForEach(m, nchunks, r, &r.wg)
				r.checkOnce(t, "ForEach")
				if m == 0 && r.chunks.Load() != 0 {
					t.Fatalf("empty range ran %d chunks", r.chunks.Load())
				}
			})
		}
	}
}

// gateRanger blocks every RunRange until release is closed, signalling
// started on the first call.
type gateRanger struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
	wg      sync.WaitGroup
}

func (g *gateRanger) RunRange(lo, hi int) {
	g.once.Do(func() { close(g.started) })
	<-g.release
}

// inlineSignal closes reached once want chunks have run in total.
type inlineSignal struct {
	want    int32
	ran     atomic.Int32
	reached chan struct{}
}

// signalRanger is a countRanger that also counts its chunks into sig.
type signalRanger struct {
	countRanger
	sig *inlineSignal
}

func (s *signalRanger) RunRange(lo, hi int) {
	s.countRanger.RunRange(lo, hi)
	if s.sig.ran.Add(1) == s.sig.want {
		close(s.sig.reached)
	}
}

// With the only worker stuck and the job queue full, concurrent callers
// must run their chunks inline and still complete every index once.
func TestPoolForEachSaturatedQueueRunsInline(t *testing.T) {
	p := newPool(1)
	gate := &gateRanger{started: make(chan struct{}), release: make(chan struct{})}
	gateDone := make(chan struct{})
	go func() {
		// Both chunks are queued (the queue is empty); the worker takes
		// one and blocks, the other waits in the queue.
		p.ForEach(2, 2, gate, &gate.wg)
		close(gateDone)
	}()
	<-gate.started

	const callers, m, nchunks = 4, 100, 10
	// The worker is blocked, so every chunk that runs before the release
	// runs inline on its caller. At most cap(rjobs) chunks can be queued
	// behind the worker; all the others must run inline.
	inline := &inlineSignal{want: int32(callers*nchunks - cap(p.rjobs)), reached: make(chan struct{})}
	rs := make([]*signalRanger, callers)
	var callersWG sync.WaitGroup
	for c := range rs {
		rs[c] = &signalRanger{countRanger: countRanger{hits: make([]atomic.Int32, m)}, sig: inline}
		callersWG.Add(1)
		go func(r *signalRanger) {
			defer callersWG.Done()
			p.ForEach(m, nchunks, r, &r.wg)
		}(rs[c])
	}
	select {
	case <-inline.reached:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d chunks ran inline while the worker was blocked, want ≥ %d", inline.ran.Load(), inline.want)
	}

	close(gate.release)
	allDone := make(chan struct{})
	go func() {
		callersWG.Wait()
		<-gateDone
		close(allDone)
	}()
	select {
	case <-allDone:
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach callers did not finish after the worker was released")
	}
	for c, r := range rs {
		r.checkOnce(t, fmt.Sprintf("caller %d", c))
	}
}

// ForEach never spawns goroutines: at most the workers plus the calling
// goroutine (running chunks inline) execute ranges at once.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := newPool(workers)
	r := &sleepRanger{}
	p.ForEach(50, 50, r, &r.wg)
	if r.peak.Load() > workers+1 {
		t.Fatalf("observed %d concurrent ranges, bound is %d workers + caller", r.peak.Load(), workers)
	}
}

// workers <= 0 selects one worker per GOMAXPROCS, each with a queue slot
// budget of four chunks.
func TestPoolDefaultWorkers(t *testing.T) {
	p := newPool(0)
	if want := 4 * runtime.GOMAXPROCS(0); cap(p.rjobs) != want {
		t.Fatalf("job queue holds %d chunks, want %d", cap(p.rjobs), want)
	}
	r := &countRanger{hits: make([]atomic.Int32, 64)}
	p.ForEach(64, 8, r, &r.wg)
	r.checkOnce(t, "default pool")
}

// sleepRanger tracks the peak number of concurrently running ranges.
type sleepRanger struct {
	cur, peak atomic.Int64
	wg        sync.WaitGroup
}

func (s *sleepRanger) RunRange(lo, hi int) {
	c := s.cur.Add(1)
	for {
		pk := s.peak.Load()
		if c <= pk || s.peak.CompareAndSwap(pk, c) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	s.cur.Add(-1)
}

// nopRanger is a ranger with no work, so AllocsPerRun sees only dispatch.
type nopRanger struct{ wg sync.WaitGroup }

func (*nopRanger) RunRange(lo, hi int) {}

// A ForEach dispatch allocates nothing: chunks travel by value through the
// job channel. The shared pool is the one the kernels use.
func TestPoolForEachZeroAllocs(t *testing.T) {
	p := Shared()
	r := &nopRanger{}
	allocs := testing.AllocsPerRun(100, func() { p.ForEach(1000, 8, r, &r.wg) })
	if allocs != 0 && !testenv.RaceEnabled {
		t.Fatalf("ForEach allocates %v times per call, want 0", allocs)
	}
}

func TestGroupCollectsFirstError(t *testing.T) {
	var g Group
	boom := errors.New("boom")
	g.Go(func() error { return nil })
	g.Go(func() error { return boom })
	g.Go(func() error { time.Sleep(time.Millisecond); return errors.New("later") })
	if err := g.Wait(); !errors.Is(err, boom) && err.Error() != "later" {
		// First error wins; either could be first, but nil is wrong.
		if err == nil {
			t.Fatal("Wait returned nil despite failures")
		}
	}
}
