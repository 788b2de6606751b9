package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lotus/internal/core/trace"
	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
)

// The session loop: past the door (admission.go), one goroutine per
// connection reads ShardReqs and streams each one's frames in order.

// sessionPIDBase is where a session's wait/consume records sit in the trace
// ring: sessionPIDBase + session id, far above the plane's worker pids
// (pipeline.WorkerPID(slot), 4001 and up, one per pool slot), so the two
// ranges never meet.
const sessionPIDBase = 1 << 20

// session is one connected client's server-side state: this struct, its
// connection goroutine, and a metrics row. It owns no pipeline — batches come
// from the server's compute plane — which is what keeps O(1000) mostly-idle
// sessions cheap.
type session struct {
	srv    *Server
	id     int
	conn   net.Conn
	tenant *tenantState
	sm     *SessionMetrics
}

func (s *Server) newSession(conn net.Conn, hello Hello) *session {
	s.mu.Lock()
	s.sessionSeq++
	id := s.sessionSeq
	s.mu.Unlock()
	ss := &session{
		srv:    s,
		id:     id,
		conn:   conn,
		tenant: s.qos.tenant(hello.Tenant),
		sm:     s.metrics.OpenSession(id, hello.Name, hello.Tenant, hello.Rank, hello.World, time.Now()),
	}
	ss.tenant.mu.Lock()
	ss.tenant.sessions++
	ss.tenant.mu.Unlock()
	return ss
}

// close releases the session's registry state (metrics row, tenant count).
func (ss *session) close() {
	ss.srv.metrics.CloseSession(ss.id)
	ss.tenant.mu.Lock()
	ss.tenant.sessions--
	ss.tenant.mu.Unlock()
}

// handleConn owns one client session: the door, then a request loop until
// the client says Bye, disconnects, or violates the protocol. Every failure
// path answers with an Error frame and closes — malformed remote input must
// never panic the server.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()

	hello, legacy, err := s.readHello(conn)
	if err != nil {
		s.slogf("lotus-serve: %s: rejected: %v", conn.RemoteAddr(), err)
		refuse(conn, err, legacy)
		return
	}
	release, err := s.admit()
	if err != nil {
		s.slogf("lotus-serve: %s: turned away: %v", conn.RemoteAddr(), err)
		sendError(conn, err.Error(), CodeBusy)
		return
	}
	defer release()
	sess := s.newSession(conn, hello)
	defer sess.close()
	s.slogf("lotus-serve: session %d: %s rank %d/%d (%q tenant %q)",
		sess.id, conn.RemoteAddr(), hello.Rank, hello.World, hello.Name, hello.Tenant)

	ack := HelloAck{
		Version:     ProtocolVersion,
		DatasetLen:  s.cfg.Spec.NumSamples,
		BatchSize:   s.cfg.Spec.BatchSize,
		PlanBatches: s.planLen,
		Workload:    string(s.cfg.Spec.Kind),
		Table:       s.table,
	}
	if s.cfg.Mode == pipeline.RealData {
		ack.Mode = 1
	}
	if err := WriteFrame(conn, EncodeHelloAck(ack)); err != nil {
		return
	}

	for {
		if !s.setStreaming(conn, false) {
			return // the drain let this session's epoch finish; it leaves now
		}
		payload, err := ReadFrame(conn, s.maxRequest)
		if err != nil {
			if err == io.EOF {
				return // client hung up cleanly between requests
			}
			if errors.Is(err, ErrMalformed) || errors.Is(err, ErrCorruptFrame) {
				sendError(conn, err.Error(), CodeFatal)
			}
			return
		}
		msg, err := DecodeMessage(payload)
		if err != nil {
			sendError(conn, err.Error(), CodeFatal)
			return
		}
		req, ok := msg.(ShardReq)
		if !ok {
			if _, bye := msg.(Bye); !bye {
				sendError(conn, fmt.Sprintf("unexpected %T mid-session", msg), CodeFatal)
			}
			return
		}
		if !s.setStreaming(conn, true) {
			sendError(conn, "server draining", CodeFatal)
			return
		}
		if req.Hedge {
			s.metrics.AddHedge(len(req.IDs))
		}
		shard, err := s.shardOf(req)
		if err != nil {
			sendError(conn, err.Error(), CodeFatal)
		} else {
			err = sess.streamShard(req.Epoch, shard)
		}
		if err != nil {
			sess.sm.AddEpochAbort()
			s.metrics.AddEpochAbort()
			s.slogf("lotus-serve: session %d: epoch %d: %v", sess.id, req.Epoch, err)
			return
		}
	}
}

// fetched is one slot of a streaming shard's window, handed from the fetcher
// that obtained it to the write loop.
type fetched struct {
	f   *Frame
	err error
	// computedAt is when this session's own compute finished the frame; zero
	// for a frame the cache, the disk tier or another session supplied.
	computedAt time.Time
}

// shardWindow is the bounded run-ahead of one streaming shard: at most
// len(slots) batches are outstanding — being fetched, or fetched and not yet
// taken by the write loop — and slot i is delivered through slots[i%len].
type shardWindow struct {
	slots  []chan fetched // one-slot futures, reused every len(slots) batches
	tokens chan struct{}  // one per outstanding slot; the write loop returns them
	next   atomic.Int64   // the next slot to fetch

	fetchers atomic.Int64 // fetchers asked for; at most len(slots) are started
	wg       sync.WaitGroup
}

// startFetcher adds a fetcher to the window, up to one per slot. A stream
// starts with one, and each compute a fetcher is about to block in starts
// the next: over a cached shard a single goroutine streaks through the hits
// (a second would only take turns with it), while a cold shard has its whole
// window computing within a few batches.
func (ss *session) startFetcher(ctx context.Context, epoch int, shard []PlanBatch, w *shardWindow) {
	if w.fetchers.Add(1) > int64(len(w.slots)) {
		return
	}
	w.wg.Add(1) // never from zero during Wait: the caller is the stream or a live fetcher
	go func() {
		defer w.wg.Done()
		ss.fetch(ctx, epoch, shard, w)
	}()
}

// fetch is one of the window's fetchers: take a token, take the next slot of
// the shard, obtain its frame, deliver it. Every frame is one Acquire —
// memory hit, disk-tier load, single-flight wait on whichever session is
// already computing it, or a compute on the shared plane after winning the
// claim (published to the cache before Acquire returns, so a slow client
// never delays another session's waiters). With the batch cache off it is
// the same Acquire on a cache that keeps nothing.
func (ss *session) fetch(ctx context.Context, epoch int, shard []PlanBatch, w *shardWindow) {
	s := ss.srv
	var pb PlanBatch
	var r fetched
	compute := func() (*Frame, error) {
		ss.startFetcher(ctx, epoch, shard, w)
		f, err := s.plane.compute(ctx, ss.tenant, epoch, pb)
		r.computedAt = time.Now()
		return f, err
	}
	for {
		select {
		case w.tokens <- struct{}{}:
		case <-ctx.Done():
			return
		}
		i := int(w.next.Add(1)) - 1
		if i >= len(shard) {
			return
		}
		pb, r = shard[i], fetched{}
		key := BatchKey{Fingerprint: s.specFP, Epoch: epoch, GlobalID: pb.GlobalID}
		r.f, r.err = s.cache.Acquire(key, ctx.Done(), compute)
		if r.err != nil {
			r.err = fmt.Errorf("batch %d: %w", pb.GlobalID, r.err)
		}
		// Never blocks: holding a token means slot i-len(slots), the previous
		// user of this future, has been taken.
		w.slots[i%len(w.slots)] <- r
		if r.err != nil {
			return
		}
	}
}

// streamShard streams one non-empty shard of one epoch: a bounded window of
// fetches runs ahead of the write loop, which delivers their frames strictly
// in shard order. When the client or the network is slow the window fills
// and the fetchers park — bounded backpressure instead of unbounded
// buffering — and since every frame is a pure function of (spec, epoch,
// batch), which session or worker produced it never shows in the bytes. The
// stream ends with the shard's last frame: the client counts them.
func (ss *session) streamShard(epoch int, shard []PlanBatch) error {
	s := ss.srv
	ctx, cancelEpoch := context.WithCancel(s.ctx)
	unwatch := ss.watchConn(cancelEpoch)
	defer unwatch()

	window := min(s.cfg.Prefetch, len(shard))
	w := &shardWindow{slots: make([]chan fetched, window), tokens: make(chan struct{}, window)}
	for k := range w.slots {
		w.slots[k] = make(chan fetched, 1)
	}
	ss.startFetcher(ctx, epoch, shard, w)
	// Whatever ends the stream, no fetcher outlives it — cancel releases the
	// ones parked on a token, the plane's queue, a cache wait or a stall —
	// and no frame is left in a future nobody will take.
	defer func() {
		cancelEpoch()
		w.wg.Wait()
		for _, slot := range w.slots {
			select {
			case r := <-slot:
				if r.f != nil {
					r.f.Release()
				}
			default:
			}
		}
	}()
	ss.sm.SetQueueGauge(func() (ready int) {
		for _, slot := range w.slots {
			ready += len(slot)
		}
		return ready
	})
	defer ss.sm.SetQueueGauge(nil)
	pid := sessionPIDBase + ss.id

	var werr, ferr error
stream:
	for i := range shard {
		var r fetched
		// An arrival that beat the write loop logs the paper's 1µs marker
		// for "no waiting".
		waitStart, wait := time.Time{}, time.Microsecond
		select {
		case r = <-w.slots[i%window]:
		default:
			waitStart = time.Now()
			select {
			case r = <-w.slots[i%window]:
				wait = time.Since(waitStart)
			case <-ctx.Done():
				ferr = ctx.Err()
				break stream
			}
		}
		<-w.tokens
		if ferr = r.err; ferr != nil {
			break
		}
		if i == len(shard)-1 {
			// The last frame ends the stream, so the watcher must be off the
			// socket before it is written: the client may send its next
			// request the moment it lands — bytes that belong to the session
			// loop's reader. Nothing is lost: every fetch of the shard has
			// delivered by now. The epoch counts here too, so a client holding
			// its whole stream finds it on /metrics.
			unwatch()
			ss.sm.AddEpoch()
			s.metrics.AddEpoch()
		}
		werr = ss.writeBatchFrame(r.f, ctx.Done())
		r.f.Release()
		if werr != nil {
			break
		}
		if !r.computedAt.IsZero() {
			// The loader's main-process view, for batches this session's own
			// computes produced: [T2], the wait for the batch, and the delay
			// from preprocessed to handed on.
			now := time.Now()
			if waitStart.IsZero() {
				waitStart = now
			}
			gid := epoch*s.planLen + shard[i].GlobalID
			s.ring.Add(trace.Record{Kind: trace.KindBatchWait, PID: pid, BatchID: gid,
				SampleIndex: -1, Start: waitStart, Dur: wait})
			s.ring.Add(trace.Record{Kind: trace.KindBatchConsumed, PID: pid, BatchID: gid,
				SampleIndex: -1, Start: now})
			ss.sm.AddWait(wait)
			ss.sm.AddDelay(now.Sub(r.computedAt))
		}
	}
	if werr != nil {
		return fmt.Errorf("write: %w", werr)
	}
	if ferr != nil {
		if ctx.Err() != nil {
			ferr = errors.New("server draining")
		}
		sendError(ss.conn, fmt.Sprintf("epoch %d: %v", epoch, ferr), CodeFatal)
		return fmt.Errorf("epoch %d: %w", epoch, ferr)
	}
	return nil
}

// watchConn watches the session's socket for death while a stream is in
// flight. The protocol is strictly half-duplex — the client sends nothing
// between its request and the stream's last frame — so any read activity
// mid-stream means the peer hung up, was severed (a hedged straggler kicked
// by the cluster client), or broke protocol; all of those cancel the epoch
// so its fetches abort instead of computing — or sleeping out an injected
// stall — for a socket nobody is reading. Without it, a dead connection is
// only discovered at the next write, which can be arbitrarily far away when
// the next batch is stuck behind a degraded worker.
//
// The returned stop function is idempotent; it forces the watcher off the
// socket via a read deadline and must be called before the connection is
// next used for a request/response exchange.
func (ss *session) watchConn(cancel context.CancelFunc) (stop func()) {
	done := make(chan struct{})
	var stopping atomic.Bool
	go func() {
		defer close(done)
		var buf [1]byte
		_, err := ss.conn.Read(buf[:])
		if ne, ok := err.(net.Error); ok && ne.Timeout() && stopping.Load() {
			return // kicked off the socket by stop(), stream still healthy
		}
		cancel()
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			stopping.Store(true)
			ss.conn.SetReadDeadline(time.Now())
			<-done
			ss.conn.SetReadDeadline(time.Time{})
		})
	}
}

// writeBatchFrame pushes one encoded batch frame through the tenant rate
// limiter and the wire-fault seam as one vectored write (header + payload),
// crediting metrics. The caller holds its reference to f until this returns.
// The header carries the digest the frame already holds — no pass over the
// bytes — which is always the CLEAN payload's: wire faults model the network
// mangling bytes after the server produced them correctly, and the corrupt
// fault copies the payload before flipping a byte, so a cached frame other
// sessions are concurrently streaming is never damaged: faults land
// per-connection, not in shared cache bytes. The fault seam only chooses
// which bytes the write carries; with or without an injector it is the same
// write. QoS is schedule only: the token bucket and the pacer delay the
// write, but bytes and per-session order are untouched.
func (ss *session) writeBatchFrame(f *Frame, cancel <-chan struct{}) error {
	payload := f.Bytes()
	wireBytes := len(payload) + FrameHeaderSize
	if err := ss.srv.qos.throttle(ss.tenant, wireBytes, cancel); err != nil {
		return err
	}
	if err := ss.srv.qos.pace(ss.tenant, wireBytes, cancel); err != nil {
		return err
	}
	switch ss.srv.cfg.Faults.NextWireAction() {
	case faultinject.WireDrop:
		ss.conn.Close()
		return errors.New("faultinject: connection dropped before frame")
	case faultinject.WireTruncate:
		var hdr [FrameHeaderSize]byte
		putFrameHeader(hdr[:], len(payload), f.Digest())
		ss.conn.Write(hdr[:])
		ss.conn.Write(payload[:len(payload)/2])
		ss.conn.Close()
		return errors.New("faultinject: frame truncated mid-payload")
	case faultinject.WireCorrupt:
		// The header keeps the clean digest: the damage is the network's.
		payload = append([]byte(nil), payload...)
		payload[len(payload)/2] ^= 0xa5
	}
	if err := writeFrame(ss.conn, payload, f.Digest()); err != nil {
		return err
	}
	ss.sm.AddBatch(wireBytes)
	ss.srv.metrics.AddBatch(wireBytes)
	ss.tenant.addBatch(wireBytes)
	return nil
}
