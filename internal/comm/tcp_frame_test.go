package comm

import (
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// dialRank0 forms a two-rank TCP world in which rank 1 is the test itself:
// it dials rank 0, says hello as rank 1 and returns the raw connection, so
// the test can write arbitrary frames at rank 0's reader.
func dialRank0(t *testing.T) (*TCPFabric, net.Conn) {
	t.Helper()
	addrs := freePorts(t, 2)
	type result struct {
		f   *TCPFabric
		err error
	}
	ch := make(chan result, 1)
	go func() {
		f, err := NewTCPFabric(0, addrs, 5*time.Second)
		ch <- result{f, err}
	}()
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		conn, err = net.Dial("tcp", addrs[0])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := binary.Write(conn, binary.LittleEndian, uint32(1)); err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.err != nil {
		conn.Close()
		t.Fatal(res.err)
	}
	return res.f, conn
}

// writeHeader sends a bare frame header: tag and announced float count.
func writeHeader(t *testing.T, conn net.Conn, tag uint64, count uint32) {
	t.Helper()
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], tag)
	binary.LittleEndian.PutUint32(hdr[8:12], count)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
}

// recvAllocs runs send, then one Recv from rank 1, and reports the bytes
// the process allocated from the start of send on and the Recv error.
func recvAllocs(t *testing.T, f *TCPFabric, tag uint64, send func()) (uint64, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := f.Recv(ctx, 1, tag)
	runtime.ReadMemStats(&after)
	if ctx.Err() != nil {
		t.Fatalf("Recv waited out its deadline instead of failing promptly: %v", err)
	}
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestTCPFrameCountAboveLimitRejected: a header announcing 0xFFFFFFFF
// floats (32 GiB) must fail the peer's receives at once, without
// allocating for the announced payload.
func TestTCPFrameCountAboveLimitRejected(t *testing.T) {
	f, conn := dialRank0(t)
	defer f.Close()
	defer conn.Close()
	alloc, err := recvAllocs(t, f, 7, func() { writeHeader(t, conn, 7, 0xFFFFFFFF) })
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("Recv error = %v, want the frame-limit rejection", err)
	}
	if alloc > 1<<20 {
		t.Errorf("rejecting the frame allocated %d bytes", alloc)
	}
}

// TestTCPFrameTruncatedPayloadBoundedMemory: a header within the limit
// whose payload never arrives costs at most one decode chunk, not the
// announced size, and fails the peer's receives when the stream ends.
func TestTCPFrameTruncatedPayloadBoundedMemory(t *testing.T) {
	f, conn := dialRank0(t)
	defer f.Close()
	alloc, err := recvAllocs(t, f, 7, func() {
		writeHeader(t, conn, 7, maxFrameFloats)
		if _, err := conn.Write(make([]byte, 8*100)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Recv error = %v, want the truncated-frame error", err)
	}
	if alloc > 1<<20 {
		t.Errorf("a frame announcing %d floats with 100 sent allocated %d bytes", maxFrameFloats, alloc)
	}
}

// TestTCPFrameMultiChunkRoundTrip: payloads spanning several decode chunks
// (and a ragged last one) arrive bit-exact.
func TestTCPFrameMultiChunkRoundTrip(t *testing.T) {
	addrs := freePorts(t, 2)
	fabs := make([]*TCPFabric, 2)
	errs := make(chan error, 2)
	for r := range fabs {
		go func(r int) {
			var err error
			fabs[r], err = NewTCPFabric(r, addrs, 5*time.Second)
			errs <- err
		}(r)
	}
	for range fabs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	defer fabs[0].Close()
	defer fabs[1].Close()
	for _, n := range []int{0, 1, frameChunkFloats, 3*frameChunkFloats + 5} {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) + 0.25
		}
		go func() { errs <- fabs[1].Send(0, uint64(n), data) }()
		got, err := fabs[0].Recv(context.Background(), 1, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if len(got) != n || cap(got) != n {
			t.Fatalf("n=%d: got len %d cap %d", n, len(got), cap(got))
		}
		for i := range got {
			if got[i] != data[i] {
				t.Fatalf("n=%d: element %d = %v, want %v", n, i, got[i], data[i])
			}
		}
	}
}
