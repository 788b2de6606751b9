package serve

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"lotus/internal/tensor"
)

// Frame is one encoded Batch payload in a refcounted, pool-backed buffer.
// The serving hot path produces every batch exactly once as a Frame; the
// bytes are immutable from then on, shared by the session that produced them,
// the batch cache, and every session that hits the cache. The last Release
// returns both the buffer and the Frame header to their sync.Pools, which is
// the PR 1 imaging-pool discipline applied to the wire layer: explicit
// ownership, a handful of size classes, zero steady-state allocation.
//
// A Frame also carries the Digest of its bytes, computed once by whoever made
// the bytes: the encoder, or the disk tier's verify pass. Every session that
// streams the frame folds that digest into its StreamSum, so serving a cached
// frame hashes nothing.
//
// Reference rules: every *Frame a caller receives (encodeBatchFrame, cache
// TryGet, cache Acquire) carries one reference owned by
// that caller, released with exactly one Release. Retain adds a reference for
// a new owner. Bytes must not be mutated or retained past the owner's
// Release.
type Frame struct {
	b      []byte
	digest uint32  // Digest(b)
	box    *[]byte // pooled backing-buffer box; recycled with the frame
	refs   atomic.Int32
}

var (
	framePool    sync.Pool // *Frame headers
	frameBufPool sync.Pool // *[]byte payload buffers, frameBufClass capacities
)

// frameBufFor returns a boxed zero-length buffer with capacity >= n, reusing
// a pooled buffer when one is big enough. The box pointer travels with the
// Frame so Release can repool it without re-boxing (which would allocate).
func frameBufFor(n int) *[]byte {
	if p, _ := frameBufPool.Get().(*[]byte); p != nil && cap(*p) >= n {
		*p = (*p)[:0]
		return p
	}
	// Pool miss or undersized buffer: drop the small one (re-pooling it would
	// just hand it back on the next Get, thrashing forever once frame sizes
	// grow) and let the pool converge on the serving spec's frame class.
	b := make([]byte, 0, frameBufClass(n))
	return &b
}

// frameBufPut returns a buffer from frameBufFor to the pool. The caller must
// hold the only reference to its bytes.
func frameBufPut(box *[]byte) {
	*box = (*box)[:0]
	frameBufPool.Put(box)
}

// frameBufClass rounds n up to the next sixteenth of its enclosing power of
// two, so pooled buffers fall into a handful of size classes (eight per
// octave) instead of one per batch geometry, and a buffer is never more than
// 12.5% larger than the frame in it. Rounding to the power of two itself made
// a 19 MB frame cost a 32 MiB buffer, every byte of the slack zeroed,
// resident, and counted into the GC's heap goal.
func frameBufClass(n int) int {
	if n <= 16 {
		return 16
	}
	step := 1 << (bits.Len(uint(n-1)) - 4)
	return (n + step - 1) &^ (step - 1)
}

// newFrame wraps an already-encoded boxed buffer in a pooled Frame with one
// reference owned by the caller. The Frame takes ownership of the box, which
// must have come from frameBufFor; digest must be Digest(*box).
func newFrame(box *[]byte, digest uint32) *Frame {
	f, _ := framePool.Get().(*Frame)
	if f == nil {
		f = &Frame{}
	}
	f.b = *box
	f.digest = digest
	f.box = box
	f.refs.Store(1)
	return f
}

// encodeBatchFrame encodes m into a pooled Frame — the zero-allocation
// (steady state) form of EncodeBatch, byte-identical by construction because
// both call AppendBatch — and digests the bytes, the one hash pass they get
// on this server.
func encodeBatchFrame(m *Batch) *Frame {
	box := frameBufFor(batchWireSize(m))
	*box = AppendBatch(*box, m)
	return newFrame(box, Digest(*box))
}

// frameCollate builds one batch's frame around its tensor instead of after
// it: dst, given to the batch worker as its collate destination, takes a
// pooled frame buffer and hands out the tensor region of the frame-to-be, so
// the collate's one copy per sample is also the encode. frame then writes the
// header in front of the tensor it finds there. The bytes are AppendBatch's,
// which the tests hold it to.
type frameCollate struct {
	samples int     // batch size: with the tensor's rank, it fixes the header length
	box     *[]byte // the frame buffer, from the moment dst hands out a piece of it
}

// dst is the pipeline.CollateDst. It returns nil — collate into a fresh
// tensor, encode afterwards — where the host's float32 is not the wire's.
func (fc *frameCollate) dst(dtype tensor.DType, shape []int) *tensor.Tensor {
	off := batchTensorOffset(fc.samples, len(shape))
	size := off + tensor.NumElems(shape)*dtype.Size()
	box := frameBufFor(size)
	region := (*box)[off:size]
	var data *tensor.Tensor
	switch dtype {
	case tensor.Uint8:
		data = tensor.FromU8(region, shape...)
	case tensor.Float32:
		view, ok := f32View(region)
		if !ok {
			frameBufPut(box)
			return nil
		}
		data = tensor.FromF32(view, shape...)
	}
	*box = (*box)[:size]
	fc.box = box
	return data
}

// frame returns m's encoded, digested frame. m must be the batch the worker
// dst was given to produced; when dst was never asked (a meta batch) or
// declined, this is encodeBatchFrame.
func (fc *frameCollate) frame(m *Batch) *Frame {
	box := fc.box
	if box == nil {
		return encodeBatchFrame(m)
	}
	fc.box = nil
	if hdr := appendBatchHeader((*box)[:0], m); len(hdr)+len(m.U8)+4*len(m.F32) != len(*box) {
		panic("serve: frame header does not end where the collated tensor starts")
	}
	return newFrame(box, Digest(*box))
}

// discard reclaims the buffer of a batch whose worker failed.
func (fc *frameCollate) discard() {
	if fc.box != nil {
		frameBufPut(fc.box)
		fc.box = nil
	}
}

// Bytes exposes the encoded payload. Valid only while the caller holds a
// reference; never mutate it.
func (f *Frame) Bytes() []byte { return f.b }

// Len reports the payload length.
func (f *Frame) Len() int { return len(f.b) }

// Digest reports the payload's Digest, computed when the frame was made.
func (f *Frame) Digest() uint32 { return f.digest }

// Size is the frame's charge against the batch cache's byte budget.
func (f *Frame) Size() int64 { return int64(len(f.b)) }

// Retain adds one reference for a new owner.
func (f *Frame) Retain() {
	if f.refs.Add(1) <= 1 {
		panic("serve: Frame.Retain on a released frame")
	}
}

// Release drops one reference; the last one recycles the buffer and the
// Frame header.
func (f *Frame) Release() {
	n := f.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("serve: Frame over-released")
	}
	box := f.box
	f.b, f.box = nil, nil
	if box != nil {
		frameBufPut(box)
	}
	framePool.Put(f)
}
