package comm

// Asynchronous collectives in the style of Horovod's communication handles
// (paper §V-A): the caller launches operations as inputs become available
// and waits for completion in batches. The tag namespace for every async
// operation is reserved synchronously at call time, so as long as every
// rank issues the same collectives in the same program order, overlapping
// operations cannot cross-match on the wire — this is the SPMD ordering
// contract the Fuser's in-flight allreduce chunks rely on (see
// docs/ARCHITECTURE.md).

// Handle is an asynchronous collective in flight.
type Handle struct {
	done chan struct{}
	err  error
}

// Wait blocks until the operation completes and returns its error.
func (h *Handle) Wait() error {
	<-h.done
	return h.err
}

// completedHandle returns an already finished handle. The fuser uses it for
// degenerate (empty) chunks that need no communication.
func completedHandle() *Handle {
	h := &Handle{done: make(chan struct{})}
	close(h.done)
	return h
}

// WaitAll aggregates a batch of handles: it waits for every operation and
// returns the first error encountered.
func WaitAll(hs ...*Handle) error {
	var firstErr error
	for _, h := range hs {
		if err := h.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AllreduceSumAsync starts an asynchronous in-place sum-allreduce. The tag
// namespace is reserved synchronously at call time, so as long as every rank
// issues the same collectives in the same program order, overlapping
// operations cannot cross-match. The caller must not touch data until Wait
// returns.
func (c *Communicator) AllreduceSumAsync(data []float64) *Handle {
	base := c.nextOp()
	h := &Handle{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.err = c.allreduceSumTagged(data, base)
	}()
	return h
}

// AllreduceMeanAsync starts an asynchronous in-place mean-allreduce.
func (c *Communicator) AllreduceMeanAsync(data []float64) *Handle {
	base := c.nextOp()
	h := &Handle{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		if err := c.allreduceSumTagged(data, base); err != nil {
			h.err = err
			return
		}
		inv := 1 / float64(c.Size())
		for i := range data {
			data[i] *= inv
		}
	}()
	return h
}

// GatherHandle is an asynchronous variable-length allgather in flight.
type GatherHandle struct {
	done   chan struct{}
	blocks [][]float64
	err    error
}

// Wait blocks until the allgather completes and returns the per-rank
// payloads (indexed by rank, identical on every rank).
func (h *GatherHandle) Wait() ([][]float64, error) {
	<-h.done
	return h.blocks, h.err
}

// AllgatherVAsync starts an asynchronous AllgatherV. The Fuser's compressed
// chunks ride it, one gather of encoded payloads per chunk. The caller must
// not mutate mine until Wait returns.
func (c *Communicator) AllgatherVAsync(mine []float64) *GatherHandle {
	base := c.nextOp()
	h := &GatherHandle{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.blocks, h.err = c.allgatherVTagged(mine, base)
	}()
	return h
}
