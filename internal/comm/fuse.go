package comm

import "repro/internal/tensor"

// DefaultFusionBytes mirrors Horovod's default fusion-buffer threshold
// (paper §II-D: "usually set as 16 MB or 32 MB to guarantee that each
// allreduce() is bandwidth dominated").
const DefaultFusionBytes = 16 << 20

// chunk is one fused allreduce in flight: a packed buffer plus the tensors
// it was packed from. wait blocks for the collective and scatters the
// averaged values back into the original tensors.
//
// A compressed chunk (codec != nil) rides an allgather of encoded payloads
// instead of a ring allreduce: wait decodes every rank's block and averages
// them in rank order — the same deterministic arithmetic as
// CompressedAllreduceMean, so results are bit-identical across ranks. When
// the chunk carries an error-feedback residual slot, wait also stores the
// part of this rank's compensated contribution that the codec discarded.
type chunk struct {
	h       *Handle
	gh      *GatherHandle // compressed path (nil for exact chunks)
	codec   Codec         // captured at launch; immune to later SetCodec
	res     []float64     // error-feedback residual slot (nil = bare codec)
	payload []float64     // pooled encoded payload, recycled by wait
	buf     []float64
	tensors []*tensor.Tensor
}

// wait blocks until the fused allreduce completes, scatters the averaged
// buffer back into the source tensors, and returns the operation's error.
// On success the packed buffer is recycled into the fusion buffer pool.
func (ch *chunk) wait() error {
	var err error
	if ch.gh != nil {
		err = ch.waitCompressed()
	} else {
		err = ch.h.Wait()
	}
	if err != nil {
		return err
	}
	off := 0
	for _, t := range ch.tensors {
		copy(t.Data, ch.buf[off:off+t.Len()])
		off += t.Len()
	}
	putBuf(ch.buf)
	ch.buf = nil
	return nil
}

// waitCompressed completes a compressed chunk: wait for the allgather,
// update the error-feedback residual from this rank's own payload, then
// average the decoded blocks in rank order into ch.buf.
func (ch *chunk) waitCompressed() error {
	blocks, err := ch.gh.Wait()
	if err != nil {
		return err
	}
	n := len(ch.buf)
	dec := getBuf(n)
	defer putBuf(dec)
	if ch.res != nil {
		// ch.buf still holds the compensated vector x+r; the payload sent was
		// enc(x+r), so the new residual is (x+r) − dec(enc(x+r)). Decoding the
		// local payload keeps the arithmetic identical to what every peer
		// attributes to this rank.
		if err := decodeInto(ch.codec, dec, ch.payload); err != nil {
			return err
		}
		for i := range ch.res {
			ch.res[i] = ch.buf[i] - dec[i]
		}
	}
	inv := 1 / float64(len(blocks))
	for i := range ch.buf {
		ch.buf[i] = 0
	}
	for _, b := range blocks {
		if err := decodeInto(ch.codec, dec, b); err != nil {
			return err
		}
		for i, v := range dec {
			ch.buf[i] += v * inv
		}
	}
	putBuf(ch.payload)
	ch.payload = nil
	return nil
}

// Fuser batches small tensors into large allreduce payloads, imitating
// Horovod's tensor-fusion buffer. Callers Add tensors (in identical order on
// every rank) and Flush when done; a chunk's allreduce starts as soon as
// Add fills it, so earlier chunks are in flight while later tensors are
// still being added. Tensors are averaged in place.
//
// Chunk boundaries are a deterministic function of the Add sequence and the
// byte limit, so every rank launches identical collectives in identical
// order — the SPMD requirement for the underlying async allreduces.
type Fuser struct {
	comm      *Communicator
	limit     int // bytes
	groupSize int // ≥2 routes chunks through the hierarchical allreduce
	bare      Codec
	ef        *ErrorFeedback
	ordinal   int // chunk ordinal within this fuser's schedule (EF slot key)
	pending   []*tensor.Tensor
	pendingSz int // bytes
	launched  []*chunk
}

// NewFuser creates a fusion buffer over comm with the given byte threshold.
// A non-positive limit selects DefaultFusionBytes.
func NewFuser(comm *Communicator, limitBytes int) *Fuser {
	if limitBytes <= 0 {
		limitBytes = DefaultFusionBytes
	}
	return &Fuser{comm: comm, limit: limitBytes}
}

// SetGroupSize routes every subsequently launched chunk through
// HierarchicalAllreduceMean with the given intra-group rank count — the
// two-level algorithm modeling fast intra-node links (kfac.WithGroupSize /
// kfac-train -group-size). Values ≤ 1 (and ≥ world) keep the flat ring.
// Must be set identically on every rank, before the first Add whose chunk
// it should affect; chunk boundaries are unaffected, so the collective
// schedule stays deterministic.
func (f *Fuser) SetGroupSize(n int) { f.groupSize = n }

// SetCodec compresses every subsequently launched chunk with c, WITHOUT
// error feedback — the biased estimator, kept for A/B experiments (the
// convergence-safety suite demonstrates it diverging under Top-K). Pass
// nil to return to exact transmission. Same SPMD rules as SetGroupSize:
// identical on every rank, set before the first Add it should affect.
// Compression takes precedence over the hierarchical route (compressed
// chunks ride a flat allgather of encoded payloads).
func (f *Fuser) SetCodec(c Codec) { f.bare = c }

// SetErrorFeedback routes every subsequently launched chunk through ef:
// the chunk is compensated with ef's residual for its ordinal before
// encoding with ef.Codec(), and the residual is updated after decode. The
// accumulator outlives the fuser — recreating a fuser each round with an
// identical Add sequence reuses the same residual slots, which is exactly
// how the trainer and the K-FAC preconditioner persist error feedback across
// steps. A nil ef (or ef with a nil codec) transmits exact. Overrides
// SetCodec.
func (f *Fuser) SetErrorFeedback(ef *ErrorFeedback) { f.ef = ef }

// Add enqueues t for averaging. When the pending set reaches the fusion
// threshold, an asynchronous fused allreduce is launched. A single tensor
// larger than the threshold forms a chunk of its own.
func (f *Fuser) Add(t *tensor.Tensor) {
	f.pending = append(f.pending, t)
	f.pendingSz += 8 * t.Len()
	if f.pendingSz >= f.limit {
		f.launch()
	}
}

// launch packs the pending tensors into one buffer and starts an async
// mean-allreduce on it.
func (f *Fuser) launch() {
	if len(f.pending) == 0 {
		return
	}
	total := 0
	for _, t := range f.pending {
		total += t.Len()
	}
	// Drawn from the shared pool; returned by chunk.wait after scatter.
	buf := getBuf(total)
	off := 0
	for _, t := range f.pending {
		copy(buf[off:], t.Data)
		off += t.Len()
	}
	codec := f.bare
	if f.ef != nil {
		codec = f.ef.Codec()
	}
	if codec != nil && total > 0 {
		// Compressed path: compensate (error feedback only), encode into a
		// pooled payload, allgather the payloads. Decode/average and the
		// residual update happen in chunk.wait. The residual slot is claimed
		// here, keyed by the chunk's launch ordinal.
		var res []float64
		if f.ef != nil {
			res = f.ef.slot(f.ordinal, total)
			for i, r := range res {
				buf[i] += r
			}
		}
		payload := encodeInto(codec, getBuf(codec.CompressedLen(total)), buf)
		gh := f.comm.AllgatherVAsync(payload)
		f.launched = append(f.launched, &chunk{
			gh: gh, codec: codec, res: res, payload: payload,
			buf: buf, tensors: f.pending,
		})
		f.pending = nil
		f.pendingSz = 0
		f.ordinal++
		return
	}
	h := completedHandle()
	if total > 0 {
		// Zero-element chunks (all-empty tensors) need no wire traffic; every
		// rank sees the same sizes, so all skip identically.
		if f.groupSize > 1 {
			h = f.comm.HierarchicalAllreduceMeanAsync(buf, f.groupSize)
		} else {
			h = f.comm.AllreduceMeanAsync(buf)
		}
	}
	f.launched = append(f.launched, &chunk{h: h, buf: buf, tensors: f.pending})
	f.pending = nil
	f.pendingSz = 0
	f.ordinal++
}

// Flush launches any remaining fused operation, waits for all in-flight
// operations, and scatters results back into the original tensors.
func (f *Fuser) Flush() error {
	f.launch()
	var firstErr error
	for _, ch := range f.launched {
		if err := ch.wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.launched = nil
	return firstErr
}

// AllreduceMeanTensors averages a set of tensors across ranks through a
// fusion buffer — the convenience entry point the trainer uses for gradient
// exchange.
func AllreduceMeanTensors(c *Communicator, limitBytes int, ts ...*tensor.Tensor) error {
	fu := NewFuser(c, limitBytes)
	for _, t := range ts {
		fu.Add(t)
	}
	return fu.Flush()
}
