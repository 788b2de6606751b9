package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"lotus/internal/cache"
	"lotus/internal/data"
	"lotus/internal/pipeline"
	"lotus/internal/store"
)

// Metrics aggregates live service counters for the /metrics endpoint:
// server-wide totals plus one entry per session. All methods are safe for
// concurrent use; snapshots are consistent copies.
type Metrics struct {
	mu             sync.Mutex
	start          time.Time
	sessionsTotal  int
	sessionsActive int
	batchesSent    int64
	bytesSent      int64
	epochsServed   int64
	epochsAborted  int64
	reconnects     int64
	hedgeRequests  int64
	hedgeBatches   int64
	busyRejections int64
	admitWaited    int64
	framesDigested int64
	digestBytes    int64
	opensByName    map[string]int
	sessions       map[int]*SessionMetrics
}

// NewMetrics returns an empty registry anchored at now.
func NewMetrics(now time.Time) *Metrics {
	return &Metrics{
		start:       now,
		sessions:    make(map[int]*SessionMetrics),
		opensByName: make(map[string]int),
	}
}

// maxIdentities bounds the (name, rank) identities OpenSession remembers:
// both are the client's to choose. A job of up to 1024 ranks under one name
// keeps its reconnect count.
const maxIdentities = 1024

// OpenSession registers a new session and returns its metrics handle. A
// session whose (name, rank) identity was seen before counts as a reconnect:
// the server-side observable of a client retry loop. Client-side OnRetry
// callbacks see each retry decision, but only this counter lets an operator
// spot a reconnect storm from the serving side. An identity first seen once
// maxIdentities are remembered is not remembered, so its reconnects are not
// counted.
func (m *Metrics) OpenSession(id int, name, tenant string, rank, world int, now time.Time) *SessionMetrics {
	sm := &SessionMetrics{id: id, name: name, tenant: tenant, rank: rank, world: world, connectedAt: now}
	identity := fmt.Sprintf("%s/%d", name, rank)
	m.mu.Lock()
	m.sessionsTotal++
	m.sessionsActive++
	sm.reconnects = m.opensByName[identity]
	if sm.reconnects > 0 || len(m.opensByName) < maxIdentities {
		m.opensByName[identity]++
	}
	if sm.reconnects > 0 {
		m.reconnects++
	}
	m.sessions[id] = sm
	m.mu.Unlock()
	return sm
}

// CloseSession marks a session gone. Its counters stay visible in the
// snapshot's totals but the per-session row is dropped.
func (m *Metrics) CloseSession(id int) {
	m.mu.Lock()
	if _, ok := m.sessions[id]; ok {
		m.sessionsActive--
		delete(m.sessions, id)
	}
	m.mu.Unlock()
}

// AddBatch credits one streamed batch frame of the given wire size to the
// server totals (the session handle is credited separately by its owner).
func (m *Metrics) AddBatch(bytes int) {
	m.mu.Lock()
	m.batchesSent++
	m.bytesSent += int64(bytes)
	m.mu.Unlock()
}

// AddEpoch counts one fully streamed epoch shard.
func (m *Metrics) AddEpoch() {
	m.mu.Lock()
	m.epochsServed++
	m.mu.Unlock()
}

// AddEpochAbort counts one epoch stream that ended in an error (client gone,
// write failure, or compute failure) instead of its last frame. Paired
// with the reconnect counter, a rising abort rate is the server-side
// signature of clients stuck in retry loops.
func (m *Metrics) AddEpochAbort() {
	m.mu.Lock()
	m.epochsAborted++
	m.mu.Unlock()
}

// AddHedge counts one speculative ShardReq (a straggler-mitigating router
// re-issuing ids it already asked another node for) covering the given
// number of batch IDs. A high hedge rate on a node means its *peers* look
// slow to the routers — or the routers' hedge quantile is tuned too low.
func (m *Metrics) AddHedge(ids int) {
	m.mu.Lock()
	m.hedgeRequests++
	m.hedgeBatches += int64(ids)
	m.mu.Unlock()
}

// AddBusy counts one connection turned away by admission control (full
// session table and full — or disabled — accept queue). A rising rate is the
// intended overload signature: fast rejection, not collapse.
func (m *Metrics) AddBusy() {
	m.mu.Lock()
	m.busyRejections++
	m.mu.Unlock()
}

// AddAdmitWaited counts one connection that waited in the bounded admission
// queue for a session slot (whether or not it was eventually admitted).
func (m *Metrics) AddAdmitWaited() {
	m.mu.Lock()
	m.admitWaited++
	m.mu.Unlock()
}

// AddDigest observes one payload digest pass the server made over a frame of
// the given size. One per frame it encodes; cache hits reuse the frame's
// digest and disk-tier loads adopt the one the store verified, so on a warm
// cache this counter stands still while batches_sent runs.
func (m *Metrics) AddDigest(bytes int) {
	m.mu.Lock()
	m.framesDigested++
	m.digestBytes += int64(bytes)
	m.mu.Unlock()
}

// HedgeStats is the /metrics hedge block: speculative shard requests served
// by this node.
type HedgeStats struct {
	Requests int64 `json:"requests"`
	Batches  int64 `json:"batches"`
}

// SessionMetrics tracks one session's live counters. The queue gauge reads
// how many fetched frames of the session's window await the write loop.
type SessionMetrics struct {
	mu          sync.Mutex
	id          int
	name        string
	tenant      string
	rank, world int
	connectedAt time.Time

	epochsDone    int
	epochsAborted int
	reconnects    int
	batchesSent   int64
	bytesSent     int64
	queueDepth    func() int

	// Tracer-derived timings: wait is the main-proc wait for each batch
	// ([T2]); delay is preprocess-end to consumption, the paper's delay
	// metric.
	waitTotal  time.Duration
	waitCount  int64
	delayTotal time.Duration
	delayCount int64
}

// SetQueueGauge installs the live queue-depth reader for the epoch currently
// streaming (nil between epochs).
func (s *SessionMetrics) SetQueueGauge(fn func() int) {
	s.mu.Lock()
	s.queueDepth = fn
	s.mu.Unlock()
}

// AddBatch credits one streamed batch frame.
func (s *SessionMetrics) AddBatch(bytes int) {
	s.mu.Lock()
	s.batchesSent++
	s.bytesSent += int64(bytes)
	s.mu.Unlock()
}

// AddEpoch counts one completed epoch shard.
func (s *SessionMetrics) AddEpoch() {
	s.mu.Lock()
	s.epochsDone++
	s.mu.Unlock()
}

// AddEpochAbort counts one epoch stream this session failed to finish.
func (s *SessionMetrics) AddEpochAbort() {
	s.mu.Lock()
	s.epochsAborted++
	s.mu.Unlock()
}

// AddWait accumulates one tracer wait record.
func (s *SessionMetrics) AddWait(d time.Duration) {
	s.mu.Lock()
	s.waitTotal += d
	s.waitCount++
	s.mu.Unlock()
}

// AddDelay accumulates one preprocess-to-consumption delay.
func (s *SessionMetrics) AddDelay(d time.Duration) {
	s.mu.Lock()
	s.delayTotal += d
	s.delayCount++
	s.mu.Unlock()
}

// SessionSnapshot is the JSON form of one session's counters.
type SessionSnapshot struct {
	ID            int     `json:"id"`
	Name          string  `json:"name"`
	Tenant        string  `json:"tenant,omitempty"`
	Rank          int     `json:"rank"`
	World         int     `json:"world"`
	ConnectedSecs float64 `json:"connected_s"`
	EpochsDone    int     `json:"epochs_done"`
	EpochsAborted int     `json:"epochs_aborted"`
	Reconnects    int     `json:"reconnects"`
	BatchesSent   int64   `json:"batches_sent"`
	BytesSent     int64   `json:"bytes_sent"`
	BatchesPerSec float64 `json:"batches_per_sec"`
	QueueDepth    int     `json:"queue_depth"`
	WaitCount     int64   `json:"wait_count"`
	MeanWaitUs    float64 `json:"mean_wait_us"`
	DelayCount    int64   `json:"delay_count"`
	MeanDelayUs   float64 `json:"mean_delay_us"`
}

func (s *SessionMetrics) snapshot(now time.Time) SessionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SessionSnapshot{
		ID:            s.id,
		Name:          s.name,
		Tenant:        s.tenant,
		Rank:          s.rank,
		World:         s.world,
		ConnectedSecs: now.Sub(s.connectedAt).Seconds(),
		EpochsDone:    s.epochsDone,
		EpochsAborted: s.epochsAborted,
		Reconnects:    s.reconnects,
		BatchesSent:   s.batchesSent,
		BytesSent:     s.bytesSent,
		WaitCount:     s.waitCount,
		DelayCount:    s.delayCount,
	}
	if out.ConnectedSecs > 0 {
		out.BatchesPerSec = float64(s.batchesSent) / out.ConnectedSecs
	}
	if s.queueDepth != nil {
		out.QueueDepth = s.queueDepth()
	}
	if s.waitCount > 0 {
		out.MeanWaitUs = float64(s.waitTotal.Microseconds()) / float64(s.waitCount)
	}
	if s.delayCount > 0 {
		out.MeanDelayUs = float64(s.delayTotal.Microseconds()) / float64(s.delayCount)
	}
	return out
}

// MetricsSnapshot is the JSON document /metrics serves.
type MetricsSnapshot struct {
	UptimeSecs     float64 `json:"uptime_s"`
	SessionsActive int     `json:"sessions_active"`
	SessionsTotal  int     `json:"sessions_total"`
	Reconnects     int64   `json:"reconnects_total"`
	EpochsServed   int64   `json:"epochs_served"`
	EpochsAborted  int64   `json:"epochs_aborted"`
	BatchesSent    int64   `json:"batches_sent"`
	BytesSent      int64   `json:"bytes_sent"`
	TraceRecords   int64   `json:"trace_records"`
	// Admission-control counters: connections turned away busy and
	// connections that waited in the bounded admission queue.
	BusyRejections int64 `json:"busy_rejections"`
	AdmitWaited    int64 `json:"admit_queued"`
	// Vectored writes issued and the batch frames they covered: one vectored
	// write per frame (header + payload), so both equal BatchesSent.
	WritevCalls  int64 `json:"writev_calls"`
	WritevFrames int64 `json:"writev_frames"`
	// Payload digest passes the server made (one per frame it encoded) and
	// the bytes they covered; a cache hit adds nothing here.
	FramesDigested int64 `json:"frames_digested"`
	DigestBytes    int64 `json:"digest_bytes"`
	// LogSuppressed counts per-session log lines dropped by the server's
	// log rate limiter (filled by the server, not this registry).
	LogSuppressed int64 `json:"log_suppressed"`
	// Shared epoch-plan cache counters (filled by the server).
	PlanBuilds int64 `json:"plan_builds"`
	PlanHits   int64 `json:"plan_hits"`
	// Runtime footprint gauges from runtime/metrics (filled by the server).
	Goroutines int64 `json:"goroutines"`
	HeapBytes  int64 `json:"heap_bytes"`
	// Frames is the process's frame memory, which HeapBytes does not see
	// (filled by the server).
	Frames FrameStats `json:"frames"`
	// Cache carries the materialized-batch cache counters (hits, misses,
	// singleflight waits, evictions, bytes); nil when the cache is disabled.
	Cache *cache.Stats `json:"cache,omitempty"`
	// SampleCache carries the split-point sample cache counters; nil when
	// that cache is disabled.
	SampleCache *cache.Stats `json:"sample_cache,omitempty"`
	// DiskCache carries the persistent disk tier counters (hits, misses,
	// spills, bytes, segments, dropped records); nil when the disk cache is
	// disabled.
	DiskCache *store.Stats `json:"disk_cache,omitempty"`
	// Corpus carries the counters of the dataset's on-disk corpus of
	// rendered sample files: rendered climbs to the number of distinct
	// samples touched and then stands still while reads runs — fabricating
	// the input is a one-time cost. Nil until the first real-pixel batch of
	// an image workload is computed.
	Corpus *data.CorpusStats `json:"corpus,omitempty"`
	// Decode carries the Loader's decode counters beside the corpus it reads:
	// how many decodes reconstructed only the window the next op keeps, how
	// many the full frame, and the pixels that were and were not
	// reconstructed. Nil exactly when Corpus is.
	Decode *pipeline.DecodeStats `json:"decode,omitempty"`
	// Resize carries the process's resampling-coefficient cache counters:
	// misses are filter tables built, hits are resizes that reused one.
	Resize ResizeStats `json:"resize"`
	// Plan names the pipeline plan rewrites in force for this server's
	// workload, mode and cache tiers, and why the others are not — e.g.
	// "IC: crop→decode, tensor tail→collate", "IC: tensor tail→collate
	// (sample cache holds the full decode)".
	Plan string `json:"plan,omitempty"`
	// Hedge carries the speculative-fetch counters; nil until the first
	// hedged ShardReq arrives.
	Hedge *HedgeStats `json:"hedge,omitempty"`
	// Tenants carries one QoS accounting row per tenant seen so far (the
	// default tenant "" among them once an unnamed session has connected).
	Tenants  []TenantSnapshot  `json:"tenants,omitempty"`
	Sessions []SessionSnapshot `json:"sessions"`
}

// ResizeStats is imaging.CoeffCacheStats on /metrics. Once every window
// side a workload draws has a table, misses stand still while hits run.
type ResizeStats struct {
	CoeffHits   uint64 `json:"coeff_hits"`
	CoeffMisses uint64 `json:"coeff_misses"`
}

// Snapshot returns a consistent copy of every counter. traceRecords is
// supplied by the caller (the server's trace ring total).
func (m *Metrics) Snapshot(now time.Time, traceRecords int64) MetricsSnapshot {
	m.mu.Lock()
	out := MetricsSnapshot{
		UptimeSecs:     now.Sub(m.start).Seconds(),
		SessionsActive: m.sessionsActive,
		SessionsTotal:  m.sessionsTotal,
		Reconnects:     m.reconnects,
		EpochsServed:   m.epochsServed,
		EpochsAborted:  m.epochsAborted,
		BatchesSent:    m.batchesSent,
		BytesSent:      m.bytesSent,
		TraceRecords:   traceRecords,
		BusyRejections: m.busyRejections,
		AdmitWaited:    m.admitWaited,
		WritevCalls:    m.batchesSent,
		WritevFrames:   m.batchesSent,
		FramesDigested: m.framesDigested,
		DigestBytes:    m.digestBytes,
	}
	if m.hedgeRequests > 0 {
		out.Hedge = &HedgeStats{Requests: m.hedgeRequests, Batches: m.hedgeBatches}
	}
	live := make([]*SessionMetrics, 0, len(m.sessions))
	for _, sm := range m.sessions {
		live = append(live, sm)
	}
	m.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	out.Sessions = make([]SessionSnapshot, len(live))
	for i, sm := range live {
		out.Sessions[i] = sm.snapshot(now)
	}
	return out
}
