package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// The door: every check on what a client sends before its session streams,
// and the rate-limited log of what it turns away.

// helloTimeout bounds how long a fresh connection may take to present a
// valid Hello before the server gives up on it.
const helloTimeout = 10 * time.Second

// maxRequestFrame is the largest frame a client may legitimately send a
// server whose epoch plan has planLen batches: a Hello with both strings at
// their MaxHelloString cap, or a ShardReq naming every plan ID. Requests are
// read before admission control, so a length prefix above this bound is
// refused before anything is allocated for it — else one handshake could
// make the server allocate DefaultMaxFrame (64 MiB) and wait helloTimeout for
// it.
func maxRequestFrame(planLen int) int {
	const hello = 1 + 2 + 4 + 4 + 2*(2+MaxHelloString) // type, version, rank, world, name, tenant
	shardReq := 1 + 4 + 4 + 4*planLen + 1              // type, epoch, count, ids, hedge
	return max(hello, shardReq)
}

// readHello reads and checks a connection's Hello. legacy reports a peer
// older than protocol version 4, which frames without the digest word; a
// version 4 peer frames like this one and is refused in the current framing.
func (s *Server) readHello(conn net.Conn) (hello Hello, legacy bool, err error) {
	conn.SetReadDeadline(time.Now().Add(s.helloTimeout))
	defer conn.SetReadDeadline(time.Time{})
	payload, legacy, err := readHelloFrame(conn, s.maxRequest)
	if err != nil {
		return Hello{}, false, fmt.Errorf("handshake: %w", err)
	}
	msg, err := DecodeMessage(payload)
	if err != nil {
		return Hello{}, false, fmt.Errorf("handshake: %w", err)
	}
	hello, ok := msg.(Hello)
	if !ok {
		return Hello{}, false, fmt.Errorf("handshake: expected Hello, got %T", msg)
	}
	if hello.Version != ProtocolVersion {
		return Hello{}, legacy, fmt.Errorf("handshake: protocol version %d, server speaks %d",
			hello.Version, ProtocolVersion)
	}
	return hello, false, nil
}

// readHelloFrame reads a connection's first frame. A peer older than
// protocol version 4 sends a length and then the payload; since version 4 a
// frame has the digest word between them. So the length's worth of bytes is
// read first: if it is a Hello of a version before 4, that was the whole
// frame. Otherwise four more bytes complete the frame, checked against its
// digest.
func readHelloFrame(r io.Reader, maxFrame int) (payload []byte, legacy bool, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, false, err
	}
	n, err := checkFrameLen(binary.BigEndian.Uint32(hdr[:]), maxFrame)
	if err != nil {
		return nil, false, err
	}
	buf := make([]byte, n+4)
	if err := readFramePayload(r, buf[:n]); err != nil {
		return nil, false, err
	}
	if msg, err := DecodeMessage(buf[:n]); err == nil {
		if h, ok := msg.(Hello); ok && h.Version < 4 {
			return buf[:n], true, nil
		}
	}
	if err := readFramePayload(r, buf[n:]); err != nil {
		return nil, false, err
	}
	payload = buf[4:]
	return payload, false, checkDigest(payload, binary.BigEndian.Uint32(buf[:4]))
}

// refuse answers a handshake readHello rejected. A legacy peer reads frames
// without a digest word, so its refusal goes out in that framing and reaches
// it as a clean Error.
func refuse(conn net.Conn, err error, legacy bool) {
	if !legacy {
		sendError(conn, err.Error(), CodeFatal)
		return
	}
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	p := EncodeError(ErrorMsg{Message: err.Error()})
	conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...))
}

// sendError writes a best-effort Error frame before the caller closes the
// connection: CodeFatal for a refusal, CodeBusy for a retryable admission
// rejection.
func sendError(conn net.Conn, msg string, code byte) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	WriteFrame(conn, EncodeError(ErrorMsg{Message: msg, Code: code}))
	conn.SetWriteDeadline(time.Time{})
}

// ErrServerBusy is the admission-control rejection: the server is at
// MaxSessions and the bounded queue is full (or timed out). It travels the
// wire as an Error frame with CodeBusy, which clients treat as transient and
// retry with their jittered backoff.
var ErrServerBusy = errors.New("server busy: session limit reached")

// admitQueue bounds how many over-limit handshakes may wait for a session
// slot at once; the rest are turned away busy immediately.
const admitQueue = 16

// admitWait bounds how long an over-limit handshake waits in that queue for
// a slot before it is turned away busy.
const admitWait = 2 * time.Second

// admit reserves one session slot, waiting in the bounded admission queue
// when the server is full. The returned release function frees the slot.
func (s *Server) admit() (release func(), err error) {
	if s.admitSem == nil {
		return func() {}, nil
	}
	select {
	case s.admitSem <- struct{}{}:
		return s.releaseSlot, nil
	default:
	}
	if s.admitWait < 0 {
		s.metrics.AddBusy()
		return nil, ErrServerBusy
	}
	if n := s.admitWaiters.Add(1); n > admitQueue {
		s.admitWaiters.Add(-1)
		s.metrics.AddBusy()
		return nil, ErrServerBusy
	}
	defer s.admitWaiters.Add(-1)
	s.metrics.AddAdmitWaited()
	t := time.NewTimer(s.admitWait)
	defer t.Stop()
	select {
	case s.admitSem <- struct{}{}:
		return s.releaseSlot, nil
	case <-t.C:
		s.metrics.AddBusy()
		return nil, ErrServerBusy
	case <-s.ctx.Done():
		return nil, ErrServerBusy
	}
}

func (s *Server) releaseSlot() { <-s.admitSem }

// shardOf checks a ShardReq's IDs against its epoch's plan — each in range,
// none twice — and returns those plan batches in request order. The plan, not
// the session, defines the work, so a trainer rank and a cluster router asking
// for the same ID get byte-identical frames. (DecodeMessage has bounded the
// epoch.)
func (s *Server) shardOf(req ShardReq) ([]PlanBatch, error) {
	plan := s.epochPlan(req.Epoch)
	shard := make([]PlanBatch, len(req.IDs))
	seen := make(map[int]bool, len(req.IDs))
	for i, id := range req.IDs {
		if id < 0 || id >= len(plan) {
			return nil, fmt.Errorf("shard request: batch id %d out of plan [0,%d)", id, len(plan))
		}
		if seen[id] {
			return nil, fmt.Errorf("shard request: duplicate batch id %d", id)
		}
		seen[id] = true
		shard[i] = plan[id]
	}
	return shard, nil
}

// slogf is the rate-limited log path for per-session lines; lifecycle lines
// (start, drain) keep the unthrottled cfg.Logf.
func (s *Server) slogf(format string, args ...any) { s.slog.Logf(format, args...) }

// logLinesPerSec is the per-session log line rate (handshake rejects, epoch
// errors, session opens), with a 2s burst; suppressed lines are counted on
// /metrics.
const logLinesPerSec = 50

// logLimiter throttles high-cardinality log lines behind a token bucket so
// a session churn storm cannot serialize a thousand connection goroutines on
// the logger. Suppressed lines are counted, not silently lost.
type logLimiter struct {
	bucket     *tokenBucket
	logf       func(string, ...any)
	suppressed atomic.Int64
}

func newLogLimiter(rate float64, logf func(string, ...any)) *logLimiter {
	return &logLimiter{bucket: newTokenBucket(rate, 2*rate, time.Now()), logf: logf}
}

func (l *logLimiter) Logf(format string, args ...any) {
	if !l.bucket.allow(time.Now()) {
		l.suppressed.Add(1)
		return
	}
	l.logf(format, args...)
}
