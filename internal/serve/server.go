package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lotus/internal/cache"
	"lotus/internal/core/trace"
	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
	"lotus/internal/store"
	"lotus/internal/workloads"
)

// Config parameterizes a preprocessing server.
type Config struct {
	// Spec is the served pipeline (dataset, transforms, loader parameters).
	Spec workloads.Spec
	// Mode selects simulated (meta tensors, virtual-clock execution) or real
	// (actual pixels, wall-clock execution) preprocessing.
	Mode pipeline.Mode
	// EmulateTime, in Simulated mode, drives the pipeline with the wall
	// clock instead of the virtual one: the modeled preprocessing and
	// storage latencies pace the stream in real time while payloads stay
	// synthetic meta tensors. Load generation and cluster scaling
	// benchmarks use it to measure routing throughput without the pixel
	// work (and its single-machine CPU ceiling) of real mode.
	EmulateTime bool
	// Prefetch is the per-session window: how many batches of a streaming
	// shard may be outstanding — queued for the compute plane, computing, or
	// ready and waiting for the network — ahead of the one being written. It
	// is the service's backpressure bound (default 4); with AutoTune on it is
	// the controller's prefetch knob.
	Prefetch int
	// MaterializeDim caps synthesized image resolution in real mode.
	MaterializeDim int
	// BatchCacheBytes, when > 0, enables the server-wide materialized-batch
	// cache: each (epoch, global batch ID) frame is preprocessed and encoded
	// once, whatever the number of concurrent sessions, ShardReq routes, or
	// replication fetches asking for it, and the canonical bytes are served
	// to everyone out of an LRU cache bounded to this many payload bytes.
	// 0 disables the cache (every request for a batch computes it).
	BatchCacheBytes int64
	// DiskCacheDir, when non-empty, enables the persistent disk tier under
	// both memory caches: encoded batch frames and sample snapshots are
	// spilled to a content-addressed segment store in this directory and
	// consulted before recomputing, so restarts — and other jobs pointed at
	// the same directory with the same spec — warm-start instead of
	// re-paying the preprocessing bill. Keys embed the spec/prefix
	// fingerprints, so a reconfigured server can never alias stale bytes.
	// The batch tier engages only when BatchCacheBytes > 0 (it publishes
	// through the memory cache); the sample tier only when SampleCacheBytes
	// > 0.
	DiskCacheDir string
	// DiskCacheBytes is the disk tier's soft byte budget (segment-granular
	// LRU eviction, segments sized to fit it); <= 0 means unlimited.
	DiskCacheBytes int64
	// SampleCacheBytes, when > 0, enables the server-wide split-point sample
	// cache: each sample's deterministic prefix (storage read + decode +
	// deterministic resize) is materialized once and shared across epochs,
	// sessions, and workers, so augmented specs whose random suffix defeats
	// the batch cache still skip the decode from epoch 2 on. 0 disables it.
	// The cache layers under the batch cache: a batch-cache hit never
	// consults it, and a batch-cache miss runs only the random suffix on
	// prefix hits.
	SampleCacheBytes int64
	// Faults, when non-nil, is the deterministic fault-injection layer: it is
	// threaded into the compute plane (read errors / stalls / panics) and
	// consulted per outgoing batch frame for wire faults (drop, truncate,
	// corrupt). Production servers leave it nil.
	Faults *faultinject.Injector
	// MaxSessions bounds concurrently admitted sessions (0 = unlimited).
	// Over-limit handshakes wait (at most admitQueue of them) for a slot and
	// are otherwise turned away with a retryable ErrServerBusy Error frame
	// (CodeBusy), so overload degrades to fast rejection plus client backoff
	// instead of unbounded goroutine and buffer growth.
	MaxSessions int
	// AdmitWait bounds how long an over-limit handshake waits for a slot
	// before it is turned away busy (default 2s; < 0 never waits, answering
	// busy at once).
	AdmitWait time.Duration
	// Tenants maps tenant names (Hello.Tenant) to explicit QoS limits;
	// tenants not listed get unlimited rate and weight 1. A non-empty Tenants
	// map — or QoS — enables the per-tenant scheduler.
	Tenants map[string]TenantLimit
	// QoS force-enables per-tenant fair scheduling even with no explicit
	// limits configured: tenants then share the compute plane round robin
	// and the wire under the bounded-lead pacer, with equal weights.
	QoS bool
	// Pprof registers net/http/pprof handlers on the HTTP sidecar under
	// /debug/pprof/, so goroutine and heap footprint at high session counts
	// is diagnosable in production.
	Pprof bool
	// AutoTune enables the closed-loop controller: at every completed epoch
	// the server observes its own T2 wait records and prefetch-queue fill,
	// and actuates the compute plane's worker count and the per-session
	// prefetch window. Decisions are taken only at epoch completions, keyed
	// off the epochs-served counter; no goroutine samples a timer.
	AutoTune bool
	// Logf receives server lifecycle logs (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the long-running preprocessing service. One Server owns one
// workload spec; every client session shards the same epoch plans.
type Server struct {
	cfg        Config
	datasetLen int
	planLen    int
	// maxRequest bounds every frame the server reads: the largest message a
	// client may legitimately send (maxRequestFrame).
	maxRequest int
	// helloTimeout bounds how long a fresh connection may take to present a
	// valid Hello (the helloTimeout constant; in-package tests shorten it).
	helloTimeout time.Duration

	ln      net.Listener
	httpLn  net.Listener
	httpSrv httpCloser

	metrics     *Metrics
	ring        *trace.Ring
	cache       *BatchCache // nil when Config.BatchCacheBytes == 0
	specFP      uint64
	sampleCache *pipeline.SampleCache // nil when Config.SampleCacheBytes == 0
	prefixFP    uint64
	disk        *store.Store // nil when Config.DiskCacheDir == ""
	tuner       *tuner       // nil when Config.AutoTune is false
	plane       *plane
	// plan names the pipeline plan rewrites in force (pipeline.Compose.Rewrites)
	// given the workload, the mode and whether the sample cache is on.
	plan string
	// table is the plan's tensor tail table when the tail→collate rewrite is
	// in force (pipeline.Compose.TailTable): the plane's collate then stops one
	// pass short, and every HelloAck hands clients the table that finishes it.
	table *[3][256]float32
	// window is the live per-session prefetch window (Config.Prefetch until
	// the autotuner moves it); a streaming shard reads it once, at its start.
	window atomic.Int64

	ctx      context.Context
	cancel   context.CancelFunc
	draining atomic.Bool

	// Admission control: admitSem holds one token per admitted session when
	// MaxSessions > 0; admitWaiters counts handshakes parked in the bounded
	// queue.
	admitSem     chan struct{}
	admitWaiters atomic.Int32

	qos   *qosState // nil when per-tenant QoS is disabled
	slog  *logLimiter
	plans planCache // shared epoch plans (spec-fingerprint identical by construction)

	wg sync.WaitGroup
	mu sync.Mutex
	// conns maps every live connection to whether it is streaming an epoch
	// (false: handshaking, or idle between requests). A drain closes the idle
	// ones at once and lets the streaming ones finish.
	conns      map[net.Conn]bool
	sessionSeq int
}

// httpCloser is the slice of *http.Server the Server needs; an interface so
// server.go does not import net/http (observe.go does).
type httpCloser interface {
	Close() error
}

// New builds a Server. Call Start to begin listening.
func New(cfg Config) *Server {
	if cfg.Prefetch <= 0 {
		cfg.Prefetch = 4
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.AdmitWait == 0 {
		cfg.AdmitWait = 2 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		datasetLen:   cfg.Spec.NumSamples,
		helloTimeout: helloTimeout,
		metrics:      NewMetrics(time.Now()),
		ring:         trace.NewRing(traceRingRecords),
		ctx:          ctx,
		cancel:       cancel,
		conns:        make(map[net.Conn]bool),
	}
	s.window.Store(int64(cfg.Prefetch))
	s.ring.SetPerLogCost(cfg.Spec.PerLogCost)
	s.planLen = len(pipeline.BuildBatchPlan(s.datasetLen, cfg.Spec.BatchSize,
		cfg.Spec.Shuffle, false, cfg.Spec.Seed))
	s.maxRequest = maxRequestFrame(s.planLen)
	s.specFP = SpecFingerprint(cfg.Spec, cfg.Mode, cfg.MaterializeDim)
	s.plane = newPlane(s)
	if cfg.AutoTune {
		s.tuner = newTuner(s)
	}
	if cfg.MaxSessions > 0 {
		s.admitSem = make(chan struct{}, cfg.MaxSessions)
	}
	if cfg.QoS || len(cfg.Tenants) > 0 {
		s.qos = newQoSState(cfg.Tenants)
	}
	s.slog = newLogLimiter(logLinesPerSec, cfg.Logf)
	return s
}

// traceRingRecords is the live trace ring's capacity in records.
const traceRingRecords = 16384

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
	mu         sync.Mutex
	rate       float64 // lines per second
	burst      float64
	tokens     float64
	last       time.Time
	logf       func(string, ...any)
	suppressed atomic.Int64
}

func newLogLimiter(rate float64, logf func(string, ...any)) *logLimiter {
	return &logLimiter{rate: rate, burst: 2 * rate, tokens: 2 * rate, last: time.Now(), logf: logf}
}

func (l *logLimiter) Logf(format string, args ...any) {
	now := time.Now()
	l.mu.Lock()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	if l.tokens < 1 {
		l.mu.Unlock()
		l.suppressed.Add(1)
		return
	}
	l.tokens--
	l.mu.Unlock()
	l.logf(format, args...)
}

// planCache shares built epoch plans across every session of the server. The
// spec fingerprint is identical for all sessions by construction (one Server
// owns one spec), and BuildEpochPlan is deterministic, so a plan built once
// per epoch serves all O(1000) sessions — previously each session rebuilt
// the full O(dataset) plan on every epoch and shard request.
type planCache struct {
	mu     sync.Mutex
	epochs map[int][]PlanBatch
	order  []int // FIFO of cached epochs
	builds int64
	hits   int64
}

// planCacheEpochs bounds the retained plans; concurrent sessions cluster on
// a few adjacent epochs, so a small window gets all the reuse.
const planCacheEpochs = 4

// epochPlan returns the (shared, read-only) plan for one epoch.
func (s *Server) epochPlan(epoch int) []PlanBatch {
	pc := &s.plans
	pc.mu.Lock()
	if p, ok := pc.epochs[epoch]; ok {
		pc.hits++
		pc.mu.Unlock()
		return p
	}
	pc.mu.Unlock()
	spec := s.cfg.Spec
	plan := BuildEpochPlan(s.datasetLen, spec.BatchSize, spec.Shuffle, false, spec.Seed, epoch)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p, ok := pc.epochs[epoch]; ok { // raced another builder; identical plan
		pc.hits++
		return p
	}
	pc.builds++
	if pc.epochs == nil {
		pc.epochs = make(map[int][]PlanBatch)
	}
	pc.epochs[epoch] = plan
	pc.order = append(pc.order, epoch)
	if len(pc.order) > planCacheEpochs {
		delete(pc.epochs, pc.order[0])
		pc.order = pc.order[1:]
	}
	return plan
}

func (pc *planCache) stats() (builds, hits int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.builds, pc.hits
}

// ErrServerBusy is the admission-control rejection: the server is at
// MaxSessions and the bounded queue is full (or timed out). It travels the
// wire as an Error frame with CodeBusy, which clients treat as transient and
// retry with their jittered backoff.
var ErrServerBusy = errors.New("server busy: session limit reached")

// admitQueue bounds how many over-limit handshakes may wait for a session
// slot at once; the rest are turned away busy immediately.
const admitQueue = 16

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
	if s.cfg.AdmitWait < 0 {
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
	t := time.NewTimer(s.cfg.AdmitWait)
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

// CacheStats reports the materialized-batch cache counters; ok is false when
// the cache is disabled.
func (s *Server) CacheStats() (cache.Stats, bool) {
	if s.cache == nil {
		return cache.Stats{}, false
	}
	return s.cache.Stats(), true
}

// SampleCacheStats reports the split-point sample cache counters; ok is
// false when the cache is disabled (or the spec has no deterministic
// prefix).
func (s *Server) SampleCacheStats() (cache.Stats, bool) {
	if s.sampleCache == nil {
		return cache.Stats{}, false
	}
	return s.sampleCache.Stats(), true
}

// DiskCacheStats reports the persistent tier's counters; ok is false when
// the disk cache is disabled.
func (s *Server) DiskCacheStats() (store.Stats, bool) {
	if s.disk == nil {
		return store.Stats{}, false
	}
	return s.disk.Stats(), true
}

// FlushDiskCache drains queued spills and fsyncs them to the store's
// segments — test and checkpoint hook; the server also flushes on Shutdown.
func (s *Server) FlushDiskCache() error {
	if s.disk == nil {
		return nil
	}
	return s.disk.Flush()
}

// Start listens on addr for the wire protocol and, when httpAddr is
// non-empty, on httpAddr for the observability sidecar. It returns once both
// listeners are live.
func (s *Server) Start(addr, httpAddr string) error {
	if s.cfg.DiskCacheDir != "" {
		st, err := store.Open(s.cfg.DiskCacheDir, store.Options{
			Budget: s.cfg.DiskCacheBytes,
			Faults: s.cfg.Faults,
			Logf:   s.cfg.Logf,
		})
		if err != nil {
			return fmt.Errorf("serve: disk cache: %w", err)
		}
		s.disk = st
	}
	// The memory tiers are built here, not in New, because the disk tier
	// underneath them is a constructor argument and only exists once the
	// store is open.
	if s.cfg.BatchCacheBytes > 0 {
		s.cache = NewBatchCache(s.cfg.BatchCacheBytes, s.disk)
	}
	if s.cfg.SampleCacheBytes > 0 {
		if fp, ok := PrefixFingerprint(s.cfg.Spec, s.cfg.Mode, s.cfg.MaterializeDim); ok {
			// Blocking single-flight only when pipeline procs run on the wall
			// clock; pure-sim procs must never park on channels the virtual
			// clock cannot see, so they bypass in-flight entries instead.
			s.sampleCache = pipeline.NewSampleCache(s.cfg.SampleCacheBytes, s.wallClock(), s.disk)
			s.prefixFP = fp
		}
	}
	compose := s.cfg.Spec.Compose(nil)
	s.plan = fmt.Sprintf("%s: %s", s.cfg.Spec.Kind, compose.Rewrites(s.cfg.Mode, s.sampleCache != nil))
	s.table = compose.TailTable(s.cfg.Mode, s.sampleCache != nil)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if s.disk != nil {
			s.disk.Close()
			s.disk = nil
		}
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	if httpAddr != "" {
		if err := s.startHTTP(httpAddr); err != nil {
			ln.Close()
			if s.disk != nil {
				s.disk.Close()
				s.disk = nil
			}
			return err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	s.cfg.Logf("lotus-serve: serving %s (%d samples, batch %d, %d workers, mode %s) on %s",
		s.cfg.Spec.Kind, s.datasetLen, s.cfg.Spec.BatchSize, s.cfg.Spec.NumWorkers,
		s.modeName(), ln.Addr())
	s.cfg.Logf("lotus-serve: plan %s", s.plan)
	return nil
}

func (s *Server) modeName() string {
	if s.cfg.Mode == pipeline.RealData {
		return "real"
	}
	if s.cfg.EmulateTime {
		return "emulate"
	}
	return "sim"
}

// Addr reports the wire listener address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// HTTPAddr reports the observability listener address ("" if disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Ring exposes the live trace ring (for in-process observability and tests).
func (s *Server) Ring() *trace.Ring { return s.ring }

// Metrics exposes the live counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown drains the server: new sessions and new epoch requests are
// refused immediately, idle sessions are disconnected at once, and epochs
// already streaming run to completion (their sessions leave as they finish)
// until ctx expires, at which point in-flight epochs are aborted and
// connections closed. It returns ctx.Err() if the deadline forced the
// teardown.
func (s *Server) Shutdown(ctx context.Context) error {
	// Flag and sweep under one lock, so no session slips from idle to
	// streaming unseen: setStreaming either ran before (the epoch finishes)
	// or runs after and sees the drain. An idle session is parked in a read
	// only its client could end; closing the socket ends it now.
	s.mu.Lock()
	s.draining.Store(true)
	for c, streaming := range s.conns {
		if !streaming {
			c.Close()
		}
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel()
		s.closeConns()
		<-done
	}
	s.cancel()
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.cache != nil {
		// Sessions are gone and frame memory is not the collector's to
		// reclaim: the cache's frames go back now, or never.
		s.cache.Purge()
	}
	if s.disk != nil {
		// Sessions are gone; drain queued spills and fsync them, so the
		// next open finds every frame this server spilled. (Store.Close is
		// idempotent, so a second Shutdown is harmless.)
		if derr := s.disk.Close(); derr != nil {
			s.cfg.Logf("lotus-serve: disk cache close: %v", derr)
		}
	}
	s.cfg.Logf("lotus-serve: drained")
	return err
}

// Close tears the server down immediately (Shutdown with an expired
// deadline).
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (drain or Close)
		}
		if !s.setStreaming(conn, false) {
			s.sendError(conn, "server draining")
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// setStreaming records whether conn is streaming an epoch or idle (tracking
// it on first sight). It reports false, recording nothing, once the server
// is draining: the caller must not begin what it was about to.
func (s *Server) setStreaming(conn net.Conn, streaming bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.conns[conn] = streaming
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// sendError writes a best-effort fatal Error frame before the caller closes
// the connection.
func (s *Server) sendError(conn net.Conn, msg string) {
	s.sendErrorCode(conn, msg, CodeFatal)
}

// sendErrorCode is sendError with an explicit error code (CodeBusy for
// retryable admission rejections).
func (s *Server) sendErrorCode(conn net.Conn, msg string, code byte) {
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	WriteFrame(conn, EncodeError(ErrorMsg{Message: msg, Code: code}))
	conn.SetWriteDeadline(time.Time{})
}

// handleConn owns one client session: handshake, then a request loop until
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
		if legacy {
			// The peer reads frames without a digest word; answer in its
			// framing so the refusal reaches it as a clean Error.
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			p := EncodeError(ErrorMsg{Message: err.Error()})
			conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...))
			return
		}
		s.sendError(conn, err.Error())
		return
	}
	release, err := s.admit()
	if err != nil {
		s.slogf("lotus-serve: %s: turned away: %v", conn.RemoteAddr(), err)
		s.sendErrorCode(conn, err.Error(), CodeBusy)
		return
	}
	defer release()
	sess := s.newSession(conn, hello)
	defer sess.close()
	s.slogf("lotus-serve: session %d: %s rank %d/%d (%q tenant %q)",
		sess.id, conn.RemoteAddr(), hello.Rank, hello.World, hello.Name, hello.Tenant)

	ack := HelloAck{
		Version:     ProtocolVersion,
		DatasetLen:  s.datasetLen,
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
				s.sendError(conn, err.Error())
			}
			return
		}
		msg, err := DecodeMessage(payload)
		if err != nil {
			s.sendError(conn, err.Error())
			return
		}
		// DecodeMessage has bounded the epoch; the plan checks a ShardReq's IDs.
		req, ok := msg.(ShardReq)
		if !ok {
			if _, bye := msg.(Bye); !bye {
				s.sendError(conn, fmt.Sprintf("unexpected %T mid-session", msg))
			}
			return
		}
		if !s.setStreaming(conn, true) {
			s.sendError(conn, "server draining")
			return
		}
		if req.Hedge {
			s.metrics.AddHedge(len(req.IDs))
		}
		if err := sess.streamShardReq(req); err != nil {
			sess.sm.AddEpochAbort()
			s.metrics.AddEpochAbort()
			s.slogf("lotus-serve: session %d: epoch %d: %v", sess.id, req.Epoch, err)
			return
		}
	}
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

// session is one connected client's server-side state: this struct, its
// connection goroutine, and a metrics row. It owns no pipeline — batches come
// from the server's compute plane — which is what keeps O(1000) mostly-idle
// sessions cheap.
type session struct {
	srv    *Server
	id     int
	conn   net.Conn
	tenant *tenantState // nil when QoS is disabled
	sm     *SessionMetrics
}

func (s *Server) newSession(conn net.Conn, hello Hello) *session {
	s.mu.Lock()
	s.sessionSeq++
	id := s.sessionSeq
	s.mu.Unlock()
	ss := &session{
		srv:  s,
		id:   id,
		conn: conn,
		sm:   s.metrics.OpenSession(id, hello.Name, hello.Tenant, hello.Rank, hello.World, time.Now()),
	}
	if s.qos != nil {
		ss.tenant = s.qos.tenant(hello.Tenant)
		ss.tenant.mu.Lock()
		ss.tenant.sessions++
		ss.tenant.mu.Unlock()
	}
	return ss
}

// close releases the session's registry state (metrics row, tenant count).
func (ss *session) close() {
	ss.srv.metrics.CloseSession(ss.id)
	if ss.tenant != nil {
		ss.tenant.mu.Lock()
		ss.tenant.sessions--
		ss.tenant.mu.Unlock()
	}
}

// streamShardReq validates a batch-ID request against the epoch plan and
// streams exactly those batches, in request order. The plan — not the
// session — defines the work, so a trainer rank and a cluster router asking
// for the same ID get byte-identical frames.
func (ss *session) streamShardReq(req ShardReq) error {
	plan := ss.srv.epochPlan(req.Epoch)
	shard := make([]PlanBatch, len(req.IDs))
	seen := make(map[int]bool, len(req.IDs))
	for i, id := range req.IDs {
		if id < 0 || id >= len(plan) {
			msg := fmt.Sprintf("shard request: batch id %d out of plan [0,%d)", id, len(plan))
			ss.srv.sendError(ss.conn, msg)
			return errors.New(msg)
		}
		if seen[id] {
			msg := fmt.Sprintf("shard request: duplicate batch id %d", id)
			ss.srv.sendError(ss.conn, msg)
			return errors.New(msg)
		}
		seen[id] = true
		shard[i] = plan[id]
	}
	return ss.streamShard(req.Epoch, shard)
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
// never delays another session's waiters) — or a direct plane compute when
// the batch cache is off.
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
		if s.cache == nil {
			r.f, r.err = compute()
		} else {
			key := BatchKey{Fingerprint: s.specFP, Epoch: epoch, GlobalID: pb.GlobalID}
			r.f, r.err = s.cache.Acquire(key, ctx.Done(), compute)
		}
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

	window := min(int(s.window.Load()), len(shard))
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
	}, window)
	defer ss.sm.SetQueueGauge(nil, 0)
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
			if t := s.tuner; t != nil {
				t.observe()
			}
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
		s.sendError(ss.conn, fmt.Sprintf("epoch %d: %v", epoch, ferr))
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
	if q := ss.srv.qos; q != nil {
		if err := q.throttle(ss.tenant, wireBytes, cancel); err != nil {
			return err
		}
		if err := q.pace(ss.tenant, wireBytes, cancel); err != nil {
			return err
		}
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
	if ss.tenant != nil {
		ss.tenant.addBatch(wireBytes)
	}
	return nil
}

// batchToWire converts a pipeline batch to its wire form.
func batchToWire(epoch, globalID int, b *pipeline.Batch) *Batch {
	wb := &Batch{
		Epoch:    epoch,
		GlobalID: globalID,
		Indices:  b.Indices,
		Labels:   b.Labels,
	}
	if b.Data != nil {
		wb.Dtype = b.Data.Dtype
		wb.Shape = b.Data.Shape
		wb.U8 = b.Data.U8
		wb.F32 = b.Data.F32
	}
	return wb
}
