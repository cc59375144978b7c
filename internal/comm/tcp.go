package comm

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// TCPFabric is a full-mesh TCP transport: every pair of ranks shares one
// connection, established deterministically (lower rank listens, higher rank
// dials) so the mesh forms without a coordinator. Wire format per message:
//
//	uint64 tag | uint32 count | count × float64 (little endian)
//
// A reader goroutine per peer demultiplexes frames into per-peer mailboxes.
type TCPFabric struct {
	rank, size int
	conns      []net.Conn
	writeMu    []sync.Mutex
	boxes      []*mailbox
	listener   net.Listener
	closeOnce  sync.Once
}

// handshake frame: the dialing rank announces itself.
type hello struct {
	Rank uint32
}

// NewTCPFabric joins a TCP world. addrs lists every rank's listen address
// (host:port), indexed by rank; addrs[rank] is this process's listen
// address. The call blocks until connections to all peers are established
// or the timeout elapses.
func NewTCPFabric(rank int, addrs []string, timeout time.Duration) (*TCPFabric, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: rank %d out of range for %d addrs", rank, size)
	}
	f := &TCPFabric{
		rank: rank, size: size,
		conns:   make([]net.Conn, size),
		writeMu: make([]sync.Mutex, size),
		boxes:   make([]*mailbox, size),
	}
	for i := range f.boxes {
		f.boxes[i] = newMailbox()
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	f.listener = ln

	deadline := time.Now().Add(timeout)
	// Bound the accept loop by the same deadline the dialers use. Without
	// it a peer that never connects left Accept — and therefore this whole
	// constructor — blocked forever, leaking the listener and every
	// goroutine of the partially formed mesh (the tcpcluster early-error
	// leak). With it, every construction goroutine provably terminates by
	// the deadline and the error path can tear the mesh down.
	if tl, ok := ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(deadline)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, size)

	// Accept connections from all higher ranks.
	nAccept := size - rank - 1
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nAccept; i++ {
			conn, err := ln.Accept()
			if err != nil {
				errCh <- fmt.Errorf("comm: rank %d accept: %w", rank, err)
				return
			}
			// The handshake read is deadline-bounded too: an accepted peer
			// that never says hello (crash between dial and write, or a
			// stray prober) must not wedge construction past its timeout.
			_ = conn.SetReadDeadline(deadline)
			var h hello
			if err := binary.Read(conn, binary.LittleEndian, &h.Rank); err != nil {
				conn.Close()
				errCh <- fmt.Errorf("comm: rank %d handshake read: %w", rank, err)
				return
			}
			_ = conn.SetReadDeadline(time.Time{}) // back to blocking for readLoop
			peer := int(h.Rank)
			if peer <= rank || peer >= size {
				conn.Close()
				errCh <- fmt.Errorf("comm: rank %d got bad hello from %d", rank, peer)
				return
			}
			f.conns[peer] = conn
			go f.readLoop(peer, conn)
		}
	}()

	// Dial all lower ranks.
	for peer := 0; peer < rank; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			var conn net.Conn
			var err error
			for {
				d := net.Dialer{Deadline: deadline}
				conn, err = d.Dial("tcp", addrs[peer])
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					errCh <- fmt.Errorf("comm: rank %d dial rank %d (%s): %w", rank, peer, addrs[peer], err)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err := binary.Write(conn, binary.LittleEndian, uint32(rank)); err != nil {
				conn.Close()
				errCh <- fmt.Errorf("comm: rank %d handshake write: %w", rank, err)
				return
			}
			f.conns[peer] = conn
			go f.readLoop(peer, conn)
		}(peer)
	}

	wg.Wait()
	select {
	case err := <-errCh:
		f.Close()
		return nil, err
	default:
	}
	return f, nil
}

// maxFrameFloats bounds the float count a frame header may announce. Every
// frame carries one rank's share of one collective, so the largest
// legitimate frame is the largest buffer a rank hands a collective: its
// block of the decomposition allgather, Σ(n²+n+3) floats over the factors
// it owns (eigenbasis, eigenvalues and a 3-float header per factor; see
// kfac's appendRecord). Even if one rank owned every factor of the largest
// reference catalog, ResNet-152 (Kronecker factors up to 4608 wide), that
// block is 389,766,286 floats; the next power of two leaves headroom.
// Gradient and factor allreduce frames are smaller still (ResNet-152 has
// 60M parameters in all).
const maxFrameFloats = 1 << 29 // 536,870,912 floats = 4 GiB

// frameChunkFloats is how many floats readLoop decodes per read: a frame's
// []float64 grows only as its payload actually arrives, so a header that
// lies about its count costs at most one chunk of memory.
const frameChunkFloats = 8 << 10 // 64 KiB of payload per read

// readLoop demultiplexes incoming frames from one peer into its mailbox.
// A frame that announces more than maxFrameFloats, or ends before its
// payload does, closes the peer's mailbox with the error and drops the
// connection: the stream can no longer be trusted to be in sync.
func (f *TCPFabric) readLoop(peer int, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 1<<16)
	var hdr [12]byte
	chunk := make([]byte, 8*frameChunkFloats)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			f.boxes[peer].close(nil)
			return
		}
		tag := binary.LittleEndian.Uint64(hdr[0:8])
		count := int(binary.LittleEndian.Uint32(hdr[8:12]))
		if count > maxFrameFloats {
			f.boxes[peer].close(fmt.Errorf("comm: frame from rank %d announces %d floats, above the %d limit",
				peer, count, maxFrameFloats))
			conn.Close()
			return
		}
		data := make([]float64, 0, min(count, frameChunkFloats))
		for len(data) < count {
			n := min(count-len(data), frameChunkFloats)
			if _, err := io.ReadFull(br, chunk[:8*n]); err != nil {
				f.boxes[peer].close(fmt.Errorf("comm: frame from rank %d truncated after %d of %d floats: %w",
					peer, len(data), count, err))
				conn.Close()
				return
			}
			if need := len(data) + n; need > cap(data) {
				// Double, but never past the announced count, so the final
				// slice is exactly count long.
				grown := make([]float64, len(data), max(need, min(2*cap(data), count)))
				copy(grown, data)
				data = grown
			}
			for i := 0; i < n; i++ {
				data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*i:])))
			}
		}
		f.boxes[peer].put(tag, data)
	}
}

// Rank implements Transport.
func (f *TCPFabric) Rank() int { return f.rank }

// Size implements Transport.
func (f *TCPFabric) Size() int { return f.size }

// Send implements Transport.
func (f *TCPFabric) Send(to int, tag uint64, data []float64) error {
	if to == f.rank {
		cp := make([]float64, len(data))
		copy(cp, data)
		f.boxes[f.rank].put(tag, cp)
		return nil
	}
	if to < 0 || to >= f.size || f.conns[to] == nil {
		return fmt.Errorf("comm: send to invalid/unconnected rank %d", to)
	}
	buf := make([]byte, 12+8*len(data))
	binary.LittleEndian.PutUint64(buf[0:8], tag)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(data)))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[12+8*i:], math.Float64bits(v))
	}
	f.writeMu[to].Lock()
	defer f.writeMu[to].Unlock()
	_, err := f.conns[to].Write(buf)
	return err
}

// Recv implements Transport.
func (f *TCPFabric) Recv(ctx context.Context, from int, tag uint64) ([]float64, error) {
	if from < 0 || from >= f.size {
		return nil, fmt.Errorf("comm: recv from invalid rank %d", from)
	}
	return f.boxes[from].take(ctx, tag)
}

// Close implements Transport.
func (f *TCPFabric) Close() error {
	f.closeOnce.Do(func() {
		if f.listener != nil {
			f.listener.Close()
		}
		for _, c := range f.conns {
			if c != nil {
				c.Close()
			}
		}
		for _, b := range f.boxes {
			b.close(nil)
		}
	})
	return nil
}

var _ Transport = (*TCPFabric)(nil)
