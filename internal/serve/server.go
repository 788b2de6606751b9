package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
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
	// is the service's backpressure bound (default 4).
	Prefetch int
	// MaterializeDim caps synthesized image resolution in real mode.
	MaterializeDim int
	// BatchCacheBytes, when > 0, enables the server-wide materialized-batch
	// cache: each (epoch, global batch ID) frame is preprocessed and encoded
	// once, whatever the number of concurrent sessions, ShardReq routes, or
	// replication fetches asking for it, and the canonical bytes are served
	// to everyone out of an LRU cache bounded to this many payload bytes.
	// 0 disables the cache: nothing is kept, and a batch is computed for
	// every request that does not find it already in flight.
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
	// Over-limit handshakes wait up to admitWait (2s; at most admitQueue of
	// them) for a slot and are otherwise turned away with a retryable
	// ErrServerBusy Error frame (CodeBusy), so overload degrades to fast
	// rejection plus client backoff instead of unbounded goroutine and
	// buffer growth.
	MaxSessions int
	// Tenants maps tenant names (Hello.Tenant) to explicit QoS limits;
	// tenants not listed get unlimited rate and weight 1. The per-tenant
	// scheduler is always on: sessions that name no tenant all bill to the
	// default tenant "", which has no peer to be paced against.
	Tenants map[string]TenantLimit
	// Logf receives server lifecycle logs (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the long-running preprocessing service. One Server owns one
// workload spec; every client session shards the same epoch plans.
type Server struct {
	cfg     Config
	planLen int
	// maxRequest bounds every frame the server reads: the largest message a
	// client may legitimately send (maxRequestFrame).
	maxRequest int
	// helloTimeout bounds how long a fresh connection may take to present a
	// valid Hello (the helloTimeout constant; in-package tests shorten it).
	helloTimeout time.Duration
	// admitWait bounds how long an over-limit handshake waits for a slot
	// (the admitWait constant; in-package tests set it, < 0 never waits).
	admitWait time.Duration

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	metrics     *Metrics
	ring        *trace.Ring
	cache       *BatchCache // budget 0, keeping nothing, unless Config.BatchCacheBytes > 0
	specFP      uint64
	sampleCache *pipeline.SampleCache // nil when Config.SampleCacheBytes == 0
	prefixFP    uint64
	disk        *store.Store // nil when Config.DiskCacheDir == ""
	plane       *plane
	// plan names the pipeline plan rewrites in force (pipeline.Compose.Rewrites)
	// given the workload, the mode and whether the sample cache is on.
	plan string
	// table is the plan's tensor tail table when the tail→collate rewrite is
	// in force (pipeline.Compose.TailTable): the plane's collate then stops one
	// pass short, and every HelloAck hands clients the table that finishes it.
	table *[3][256]float32

	ctx      context.Context
	cancel   context.CancelFunc
	draining atomic.Bool

	// Admission control: admitSem holds one token per admitted session when
	// MaxSessions > 0; admitWaiters counts handshakes parked in the bounded
	// queue.
	admitSem     chan struct{}
	admitWaiters atomic.Int32

	qos   *qosState
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

// New builds a Server. Call Start to begin listening.
func New(cfg Config) *Server {
	if cfg.Prefetch <= 0 {
		cfg.Prefetch = 4
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		helloTimeout: helloTimeout,
		admitWait:    admitWait,
		metrics:      NewMetrics(time.Now()),
		cache:        NewBatchCache(0, nil),
		ring:         trace.NewRing(traceRingRecords),
		ctx:          ctx,
		cancel:       cancel,
		conns:        make(map[net.Conn]bool),
		qos:          newQoSState(cfg.Tenants),
	}
	s.ring.SetPerLogCost(cfg.Spec.PerLogCost)
	s.planLen = len(pipeline.BuildBatchPlan(cfg.Spec.NumSamples, cfg.Spec.BatchSize,
		cfg.Spec.Shuffle, false, cfg.Spec.Seed))
	s.maxRequest = maxRequestFrame(s.planLen)
	s.specFP = SpecFingerprint(cfg.Spec, cfg.Mode, cfg.MaterializeDim)
	s.plane = newPlane(s)
	if cfg.MaxSessions > 0 {
		s.admitSem = make(chan struct{}, cfg.MaxSessions)
	}
	s.slog = newLogLimiter(logLinesPerSec, cfg.Logf)
	return s
}

// traceRingRecords is the live trace ring's capacity in records.
const traceRingRecords = 16384

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
	plan := BuildEpochPlan(spec.NumSamples, spec.BatchSize, spec.Shuffle, false, spec.Seed, epoch)
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

// CacheStats reports the materialized-batch cache counters; ok is false when
// the cache is disabled.
func (s *Server) CacheStats() (cache.Stats, bool) {
	if s.cfg.BatchCacheBytes <= 0 {
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
		s.cfg.Spec.Kind, s.cfg.Spec.NumSamples, s.cfg.Spec.BatchSize, s.cfg.Spec.NumWorkers,
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
	// Sessions are gone and frame memory is not the collector's to reclaim:
	// the cache's frames go back now, or never.
	s.cache.Purge()
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
			sendError(conn, "server draining", CodeFatal)
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
