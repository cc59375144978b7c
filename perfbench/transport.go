package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// tcpFrameHeader is the per-message header comm.TCPFabric writes ahead of
// the payload (uint64 tag, uint32 count).
const tcpFrameHeader = 12

// countingTransport wraps a rank's transport and counts what it sends and
// how long Recv blocks. Counters are read with snapshot.
type countingTransport struct {
	comm.Transport
	sendBytes, sendCalls, recvWaitNs atomic.Int64
}

func (t *countingTransport) Send(to int, tag uint64, data []float64) error {
	t.sendCalls.Add(1)
	t.sendBytes.Add(int64(tcpFrameHeader + 8*len(data)))
	return t.Transport.Send(to, tag, data)
}

func (t *countingTransport) Recv(ctx context.Context, from int, tag uint64) ([]float64, error) {
	start := time.Now()
	data, err := t.Transport.Recv(ctx, from, tag)
	t.recvWaitNs.Add(int64(time.Since(start)))
	return data, err
}

type commCounts struct{ sendBytes, sendCalls, recvWaitNs int64 }

func (t *countingTransport) snapshot() commCounts {
	return commCounts{t.sendBytes.Load(), t.sendCalls.Load(), t.recvWaitNs.Load()}
}

func (c commCounts) sub(o commCounts) commCounts {
	return commCounts{c.sendBytes - o.sendBytes, c.sendCalls - o.sendCalls, c.recvWaitNs - o.recvWaitNs}
}

// tcpWorld is a loopback TCP mesh of world ranks inside this process, one
// comm.TCPFabric per rank, each wrapped in a countingTransport. It
// implements comm.Fabric for trainer.RunSessionsOn.
type tcpWorld struct {
	eps []*countingTransport
}

func (w *tcpWorld) Endpoint(rank int) comm.Transport { return w.eps[rank] }

func (w *tcpWorld) counts() commCounts {
	var c commCounts
	for _, ep := range w.eps {
		s := ep.snapshot()
		c.sendBytes += s.sendBytes
		c.sendCalls += s.sendCalls
		c.recvWaitNs += s.recvWaitNs
	}
	return c
}

func (w *tcpWorld) Close() {
	for _, ep := range w.eps {
		ep.Close()
	}
}

// newTCPWorld reserves one loopback port per rank and joins every rank's
// fabric concurrently (the lower rank listens, the higher dials).
func newTCPWorld(world int) (*tcpWorld, error) {
	addrs := make([]string, world)
	for r := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		addrs[r] = ln.Addr().String()
		ln.Close()
	}
	fabs := make([]*comm.TCPFabric, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := range fabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fabs[r], errs[r] = comm.NewTCPFabric(r, addrs, 20*time.Second)
		}()
	}
	wg.Wait()
	w := &tcpWorld{}
	var firstErr error
	for r, f := range fabs {
		if errs[r] != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", r, errs[r])
		}
		if f != nil {
			w.eps = append(w.eps, &countingTransport{Transport: f})
		}
	}
	if firstErr != nil {
		w.Close()
		return nil, firstErr
	}
	return w, nil
}
