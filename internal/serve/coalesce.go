package serve

import (
	"net"
	"sync"
	"time"
)

// Connection-level write coalescing. At O(1000) sessions the per-frame
// syscall is the dominant wire cost for small (sim/meta) batches: every
// frame is a writev of header+payload, so 1000 sessions × 20 batches/epoch
// is 20k syscalls per epoch sweep even when every payload is ~100 bytes. A
// frameWriter batches consecutive frames of one connection into a single
// vectored write, bounded three ways:
//
//   - coalesceBytes of pending payload,
//   - coalesceFrames pending frames,
//   - coalesceWindow of latency since the first pending frame.
//
// The session's write loop additionally flushes whenever the *next* frame is
// not already available, so coalescing only ever batches frames that were
// ready anyway — it trades syscalls, not first-frame latency. In immediate
// mode the writer degenerates to one writev per frame; the server selects it
// when a fault injector is active so the wire-fault seams keep their
// per-frame semantics.
type frameWriter struct {
	conn      net.Conn
	maxFrames int // coalesceFrames, or 1 in immediate mode

	// onFlush observes each vectored write (frame count) for the coalescing
	// metrics; nil = uncounted.
	onFlush func(frames int)

	hdrs     [][FrameHeaderSize]byte // preallocated to maxFrames; entries referenced by bufs
	bufs     net.Buffers
	held     []*Frame
	pend     int // pending payload+header bytes
	firstAdd time.Time
}

// The coalescing bounds: 8 frames is the writev iovec budget, and 1ms is the
// hard latency bound on a pending partial batch.
const (
	coalesceBytes  = 64 << 10
	coalesceFrames = 8
	coalesceWindow = time.Millisecond
)

var frameWriterPool sync.Pool

// newFrameWriter returns a pooled writer for one connection. immediate makes
// every add write through (one vectored write per frame).
func newFrameWriter(conn net.Conn, immediate bool) *frameWriter {
	maxFrames := coalesceFrames
	if immediate {
		maxFrames = 1
	}
	w, _ := frameWriterPool.Get().(*frameWriter)
	if w == nil {
		w = &frameWriter{}
	}
	w.conn = conn
	w.maxFrames = maxFrames
	if cap(w.hdrs) < maxFrames {
		w.hdrs = make([][FrameHeaderSize]byte, maxFrames)
		w.bufs = make(net.Buffers, 0, 2*maxFrames)
		w.held = make([]*Frame, 0, maxFrames)
	}
	return w
}

// pending reports the number of frames awaiting a flush.
func (w *frameWriter) pending() int { return len(w.held) }

// add enqueues one frame (taking its own reference) and flushes when a bound
// trips. The caller keeps its reference to f.
func (w *frameWriter) add(f *Frame) error {
	payload := f.Bytes()
	i := len(w.held)
	hdr := &w.hdrs[i]
	putFrameHeader(hdr[:], len(payload), f.Digest())
	w.bufs = append(w.bufs, hdr[:], payload)
	f.Retain()
	w.held = append(w.held, f)
	w.pend += len(payload) + FrameHeaderSize
	if i == 0 {
		w.firstAdd = time.Now()
	}
	if len(w.held) >= w.maxFrames || w.pend >= coalesceBytes ||
		time.Since(w.firstAdd) >= coalesceWindow {
		return w.flush()
	}
	return nil
}

// flush writes every pending frame as one vectored write. Pending frames are
// released whether or not the write succeeds (the connection is dead on
// error and the stream aborts).
func (w *frameWriter) flush() error {
	n := len(w.held)
	if n == 0 {
		return nil
	}
	bufs := w.bufs // WriteTo consumes its receiver; w.bufs is reset below
	_, err := bufs.WriteTo(w.conn)
	if w.onFlush != nil {
		w.onFlush(n)
	}
	w.reset()
	return err
}

// reset releases pending frames and clears the buffers.
func (w *frameWriter) reset() {
	for i, f := range w.held {
		f.Release()
		w.held[i] = nil
	}
	w.held = w.held[:0]
	for i := range w.bufs {
		w.bufs[i] = nil
	}
	w.bufs = w.bufs[:0]
	w.pend = 0
}

// close releases any pending frames and repools the writer.
func (w *frameWriter) close() {
	w.reset()
	w.conn = nil
	w.onFlush = nil
	frameWriterPool.Put(w)
}
