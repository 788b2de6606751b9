package serve

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lotus/internal/tensor"
)

// Frame is one encoded Batch payload in a refcounted, pool-backed buffer.
// The serving hot path produces every batch exactly once as a Frame; the
// bytes are immutable from then on, shared by the session that produced them,
// the batch cache, and every session that hits the cache. The last Release
// returns the buffer and the Frame header to where they came from, which is
// the PR 1 imaging-pool discipline applied to the wire layer: explicit
// ownership, a handful of size classes, zero steady-state allocation.
//
// A Frame also carries the Digest of its bytes, computed once by whoever made
// the bytes: the encoder, or the disk tier's verify pass. Every session that
// streams the frame puts that digest in the frame's header, so serving a
// cached frame hashes nothing.
//
// Reference rules: every *Frame a caller receives (encodeBatchFrame, cache
// Acquire) carries one reference owned by that caller, released with exactly
// one Release. Retain adds a reference for a new owner. Bytes must not be
// mutated or retained past the owner's Release.
type Frame struct {
	b      []byte
	digest uint32  // Digest(b)
	box    *[]byte // pooled backing-buffer box; recycled with the frame
	refs   atomic.Int32
}

var (
	framePool    sync.Pool // *Frame headers
	frameBufPool sync.Pool // *[]byte payload buffers below frameMapThreshold
)

// Frame memory. A real-pixel frame is tens of megabytes, and on the Go heap
// that made the server's footprint a property of the collector's cadence: a
// pooled buffer stays until the second collection after its last use, and
// every live one is counted twice into the heap goal. So buffers of a size
// class at or above frameMapThreshold are not Go heap at all: they are
// anonymous private mappings (frame_mmap.go) kept on frameMem, an explicit
// free list, and given back to the kernel once they have sat unused for
// frameIdleAge. Footprint is then frames in flight plus cache budgets, and a
// Frame that is never Released is a leak the frames gauge shows. The tiny
// metadata frames of simulated serving stay on the sync.Pool.
const (
	frameMapThreshold = 1 << 20
	frameIdleAge      = 5 * time.Second
)

// FrameStats is the frames block of /metrics. Frame memory is process-wide —
// every Server in the process draws on the one list — and outside the Go
// heap, so this is the only place it shows.
type FrameStats struct {
	// MappedBytes is the memory mapped for frame buffers, in use or idle.
	MappedBytes int64 `json:"mapped_bytes"`
	// InUse counts the frame buffers, of any size, taken and not yet put
	// back: frames in caches, in flight to clients, being computed.
	InUse int64 `json:"in_use"`
	// Idle counts the mapped buffers waiting on the free list.
	Idle int64 `json:"idle"`
	// Maps and Unmaps count mappings made and given back; flat in steady
	// state. MapErrors counts buffers that came from the Go heap instead
	// because the kernel refused a mapping.
	Maps      int64 `json:"maps"`
	Unmaps    int64 `json:"unmaps"`
	MapErrors int64 `json:"map_errors"`
}

// frameList is the free list of large frame buffers: per size class a LIFO
// stack, so the buffers that keep being reused are the most recently
// touched ones and a burst's extra buffers sink to the cold end, where trim
// finds them. alloc and free are the memory's source (mapFrameMem and
// unmapFrameMem, but for tests).
type frameList struct {
	alloc func(n int) ([]byte, error)
	free  func(b []byte) error

	mu    sync.Mutex
	idle  map[int][]idleFrame // by capacity; oldest put first
	owned map[*byte]struct{}  // every buffer alloc made, in use or idle
	timer *time.Timer         // runs trim; non-nil while any buffer is idle
	stats FrameStats          // all but InUse
}

type idleFrame struct {
	box   *[]byte
	since time.Time
}

func newFrameList(alloc func(int) ([]byte, error), free func([]byte) error) *frameList {
	return &frameList{alloc: alloc, free: free, idle: make(map[int][]idleFrame), owned: make(map[*byte]struct{})}
}

var (
	frameMem    = newFrameList(mapFrameMem, unmapFrameMem)
	framesInUse atomic.Int64
)

// get returns a boxed zero-length buffer of capacity class: the most recently
// used idle one, else a new mapping, else — the kernel refusing — Go heap.
func (l *frameList) get(class int) *[]byte {
	l.mu.Lock()
	if q := l.idle[class]; len(q) > 0 {
		box := q[len(q)-1].box
		l.idle[class] = q[:len(q)-1]
		l.stats.Idle--
		l.mu.Unlock()
		return box
	}
	l.mu.Unlock()
	b, err := l.alloc(class)
	l.mu.Lock()
	if err != nil {
		l.stats.MapErrors++
		b = make([]byte, class)
	} else {
		l.owned[&b[0]] = struct{}{}
		l.stats.Maps++
		l.stats.MappedBytes += int64(class)
	}
	l.mu.Unlock()
	b = b[:0]
	return &b
}

// put takes back a buffer get handed out. One that get had to take from the
// heap is left to the collector.
func (l *frameList) put(box *[]byte) {
	b := (*box)[:1]
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.owned[&b[0]]; !ok {
		return
	}
	*box = b[:0]
	l.idle[cap(b)] = append(l.idle[cap(b)], idleFrame{box, time.Now()})
	l.stats.Idle++
	if l.timer == nil {
		l.timer = time.AfterFunc(frameIdleAge, func() { l.trim(time.Now()) })
	}
}

// trim gives back every buffer idle since frameIdleAge before now or longer,
// and sets the timer for the next one to come of age.
func (l *frameList) trim(now time.Time) {
	l.mu.Lock()
	var old [][]byte
	var next time.Time
	for class, q := range l.idle {
		n := 0
		for n < len(q) && now.Sub(q[n].since) >= frameIdleAge {
			b := (*q[n].box)[:class]
			delete(l.owned, &b[0])
			old = append(old, b)
			n++
		}
		l.stats.Idle -= int64(n)
		l.stats.Unmaps += int64(n)
		l.stats.MappedBytes -= int64(n * class)
		if q = slices.Delete(q, 0, n); len(q) == 0 {
			delete(l.idle, class)
			continue
		}
		l.idle[class] = q
		if next.IsZero() || q[0].since.Before(next) {
			next = q[0].since
		}
	}
	// A buffer is idle only after a put, and put leaves a timer set.
	if next.IsZero() {
		if l.timer != nil {
			l.timer.Stop()
			l.timer = nil
		}
	} else {
		l.timer.Reset(next.Add(frameIdleAge).Sub(now))
	}
	l.mu.Unlock()
	for _, b := range old {
		if err := l.free(b); err != nil {
			panic(fmt.Sprintf("serve: giving back a %d-byte frame buffer: %v", len(b), err))
		}
	}
}

func (l *frameList) snapshot() FrameStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// frameStats reports the process's frame memory.
func frameStats() FrameStats {
	st := frameMem.snapshot()
	st.InUse = framesInUse.Load()
	return st
}

// FramesInUse is FrameStats.InUse for a process with no Server at hand: what
// testutil.CheckFrames watches return to where it started.
func FramesInUse() int64 { return framesInUse.Load() }

// frameBufFor returns a boxed zero-length buffer with capacity >= n, reusing
// a pooled or idle buffer when there is one. The box pointer travels with the
// Frame so Release can return it without re-boxing (which would allocate).
func frameBufFor(n int) *[]byte {
	framesInUse.Add(1)
	class := frameBufClass(n)
	if class >= frameMapThreshold {
		return frameMem.get(class)
	}
	if p, _ := frameBufPool.Get().(*[]byte); p != nil && cap(*p) >= n {
		*p = (*p)[:0]
		return p
	}
	// Pool miss or undersized buffer: drop the small one (re-pooling it would
	// just hand it back on the next Get, thrashing forever once frame sizes
	// grow) and let the pool converge on the serving spec's frame class.
	b := make([]byte, 0, class)
	return &b
}

// frameBufPut takes back a buffer from frameBufFor. The caller must hold the
// only reference to its bytes.
func frameBufPut(box *[]byte) {
	framesInUse.Add(-1)
	if cap(*box) >= frameMapThreshold {
		frameMem.put(box)
		return
	}
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

// encodeBatchFrame encodes m into a pooled Frame with AppendBatch, the
// reference encoder — zero allocations in steady state — and digests the
// bytes, the one hash pass they get on this server.
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

// dst is the pipeline.CollateDst. It takes every uint8 tensor, the tensor
// tail's pixel offer included — so a plan with a tail ships its batch one
// pass short, which is the wire point (wire.go) — and returns nil for a
// float32 one — collate into a fresh tensor, encode afterwards — where the
// host's float32 is not the wire's.
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
