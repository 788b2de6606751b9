package serve

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// Per-tenant quality of service. A tenant (Hello.Tenant) is the paying
// principal behind some set of sessions — one trainer job, one team, one
// product — and the unit of fairness once O(1000) sessions contend for the
// shared preprocessing tiers. Three mechanisms compose, each with one job:
//
//   - Token buckets (TenantLimit.BytesPerSec / BatchesPerSec) cap a tenant's
//     absolute service rate. They pace the write loop of every session the
//     tenant owns, so the cap holds across however many connections the
//     tenant opens.
//   - The compute plane's gate (fairGate, plane.go) orders batch
//     computations: when demand exceeds the worker pool, tenants are granted
//     workers in proportion to their weights regardless of how many sessions
//     each one runs.
//   - A fair-share pacer (fairPacer) bounds relative progress on the wire:
//     no tenant's weighted served bytes may run more than a fixed lead ahead
//     of the slowest *active* tenant. The gate arbitrates only when its
//     slots saturate; the pacer is what keeps tenants fair when the true
//     bottleneck is elsewhere (CPU, the shared cache, the kernel), because a
//     tenant that buys extra throughput with extra sessions runs straight
//     into its lead bound and is paced until its peers catch up. Idle
//     tenants age out of the active set, so the pacer is work conserving.
//
// There is deliberately no gate around the socket write itself: a
// work-conserving gate with free slots shapes nothing, and measured on
// BenchmarkTenantFairness one moved neither Jain, throughput nor p99
// (DESIGN §16).
//
// QoS is pure schedule, never content: it delays or reorders work *across*
// sessions, but within a session frames still stream in plan order and the
// bytes are untouched, so byte-identity versus a clients=1 run holds by
// construction under any limit configuration.

// TenantLimit bounds one tenant's share of the server. The zero value means
// unlimited rate with weight 1.
type TenantLimit struct {
	// BytesPerSec caps the tenant's aggregate served wire bytes per second
	// across all its sessions (token bucket). <= 0 means unlimited.
	BytesPerSec int64
	// BatchesPerSec caps the tenant's aggregate served batches per second.
	// <= 0 means unlimited.
	BatchesPerSec int64
	// BurstBatches is the batch bucket's depth; 0 defaults to one second of
	// BatchesPerSec. The bytes bucket always holds one second of BytesPerSec.
	BurstBatches int64
	// Weight is the tenant's share under contention (default 1): a weight-2
	// tenant is granted twice the plane's workers per scheduling round, and
	// paced to twice the wire bytes, of a weight-1 tenant when both have
	// work queued.
	Weight int
}

// errQoSCanceled reports that a gate wait or throttle sleep was cut short by
// the caller's cancel channel (epoch abort, server teardown).
var errQoSCanceled = errors.New("serve: qos wait canceled")

// ---------------------------------------------------------------------------
// Token bucket
// ---------------------------------------------------------------------------

// tokenBucket is a standard leaky token bucket on an injected clock, so its
// arithmetic is deterministic. take runs it with debt: it always succeeds and
// returns how long the caller must pace before proceeding. allow runs it
// without: a call that finds no whole token is refused and costs nothing.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64, now time.Time) *tokenBucket {
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take removes n tokens (the balance may go negative) and returns the delay
// until the debt is repaid; 0 means proceed immediately.
func (b *tokenBucket) take(n float64, now time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	b.tokens -= n
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// allow removes one token if a whole one is there and reports whether it
// did. A refused call leaves the balance alone, so no storm of refusals
// delays the next call the refill allows.
func (b *tokenBucket) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refillLocked credits the tokens earned since the last call, up to burst.
func (b *tokenBucket) refillLocked(now time.Time) {
	if now.After(b.last) {
		b.tokens = min(b.tokens+now.Sub(b.last).Seconds()*b.rate, b.burst)
		b.last = now
	}
}

// ---------------------------------------------------------------------------
// Fair-share pacer
// ---------------------------------------------------------------------------

// pacerScale is the fixed-point factor for weight-normalized virtual time:
// a tenant's vtime advances by cost*pacerScale/weight per charge, so integer
// division never loses more than 1/pacerScale of a byte per frame.
const pacerScale = 256

// fairPacer implements bounded-lead fair sharing over served wire bytes.
// Each tenant carries a virtual time — cumulative served bytes divided by its
// weight — and admit refuses to charge a tenant whose vtime would run more
// than maxLead ahead of the slowest active peer. The slowest active tenant is
// never paced (its lead is <= 0), so some tenant always progresses and the
// rest are dragged along within the lead bound: weighted service rates
// equalize without the pacer ever needing to know the server's capacity.
// Tenants idle longer than pacerWindow drop out of the active set and stop
// constraining their peers; a joining (or rejoining) tenant starts at the
// active minimum, so it gets no retroactive catch-up burst and owes no debt.
type fairPacer struct {
	mu      sync.Mutex
	maxLead int64 // in vtime units (bytes*pacerScale per unit weight)
	entries map[string]*pacerEntry
}

type pacerEntry struct {
	vtime      int64
	lastActive time.Time
}

// pacerWindow is how long a tenant stays in the active set after its last
// charge; pacerStep is how long a paced tenant waits before it asks again.
const (
	pacerWindow = 100 * time.Millisecond
	pacerStep   = time.Millisecond
)

func newFairPacer(leadBytes int64) *fairPacer {
	if leadBytes < 1 {
		leadBytes = 1 << 20
	}
	return &fairPacer{
		maxLead: leadBytes * pacerScale,
		entries: make(map[string]*pacerEntry),
	}
}

// admit asks to charge cost bytes to the tenant. It returns 0 and applies the
// charge if the tenant is within its lead bound, or a pause after which the
// caller should retry — peers may have advanced, or the laggards holding the
// tenant back may have idled out of the active set by then.
func (p *fairPacer) admit(tenant string, weight int, cost int64, now time.Time) time.Duration {
	if weight < 1 {
		weight = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[tenant]
	fresh := e == nil
	if fresh {
		e = &pacerEntry{}
		p.entries[tenant] = e
	}
	// The floor is the slowest *other* tenant still inside the active window.
	// The requester itself is active by definition and never its own floor:
	// with no active peers its lead is 0 and it proceeds at full rate.
	minActive := int64(-1)
	hasPeer := false
	for name, o := range p.entries {
		if name == tenant || now.Sub(o.lastActive) > pacerWindow {
			continue
		}
		if !hasPeer || o.vtime < minActive {
			minActive = o.vtime
			hasPeer = true
		}
	}
	if hasPeer && (fresh || now.Sub(e.lastActive) > pacerWindow) {
		// New or returning tenant: fast-forward to the current floor (never
		// backward) so idle time is neither banked as catch-up credit nor
		// held against it.
		if e.vtime < minActive {
			e.vtime = minActive
		}
	}
	if hasPeer && e.vtime-minActive > p.maxLead {
		return pacerStep
	}
	e.vtime += cost * pacerScale / int64(weight)
	e.lastActive = now
	return 0
}

// ---------------------------------------------------------------------------
// Tenant registry
// ---------------------------------------------------------------------------

// tenantState is one tenant's live QoS state and counters.
type tenantState struct {
	name  string
	limit TenantLimit
	bytes *tokenBucket // nil = unlimited
	batch *tokenBucket // nil = unlimited

	mu         sync.Mutex
	sessions   int
	batchesSrv int64
	bytesSrv   int64
	throttled  time.Duration
	paced      time.Duration
}

func (t *tenantState) weight() int {
	if t.limit.Weight < 1 {
		return 1
	}
	return t.limit.Weight
}

// addBatch credits one served frame to the tenant totals.
func (t *tenantState) addBatch(bytes int) {
	t.mu.Lock()
	t.batchesSrv++
	t.bytesSrv += int64(bytes)
	t.mu.Unlock()
}

// qosState is the server's QoS root: the tenant registry and the pacer
// (compute fairness is the plane's own gate, keyed by the same tenants). now
// and sleep are injectable for deterministic tests.
type qosState struct {
	mu      sync.Mutex
	limits  map[string]TenantLimit
	tenants map[string]*tenantState

	pacer *fairPacer // bounded-lead byte pacing

	now   func() time.Time
	sleep func(d time.Duration, cancel <-chan struct{}) bool
}

// qosLeadBytes bounds how many weighted wire bytes any tenant may run ahead
// of the slowest active tenant before its writes are paced — what keeps
// tenants fair when the bottleneck is CPU or cache rather than the plane's
// slots, since extra sessions cannot buy service past the lead bound.
const qosLeadBytes = 1 << 20

func newQoSState(limits map[string]TenantLimit) *qosState {
	return &qosState{
		limits:  limits,
		tenants: make(map[string]*tenantState),
		pacer:   newFairPacer(qosLeadBytes),
		now:     time.Now,
		sleep:   sleepInterruptible,
	}
}

func sleepInterruptible(d time.Duration, cancel <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}

// maxTenantRows is the tenant table's size past which it takes no new
// unconfigured tenant; with it, it bounds the fair gate's queues and the
// pacer's entries, which are keyed by the same names. Hello.Tenant is the
// client's to choose, so without a bound a client cycling names grows all
// three, and /metrics, forever.
const maxTenantRows = 256

// tenant interns the named tenant's state, creating it with the configured
// limits (unlisted tenants: unlimited rate, weight 1) on first sight. A
// configured tenant always gets its own row; an unconfigured name first seen
// once the table holds maxTenantRows rows bills to the default tenant "".
func (qs *qosState) tenant(name string) *tenantState {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	t := qs.tenants[name]
	if t != nil {
		return t
	}
	if _, configured := qs.limits[name]; !configured && len(qs.tenants) >= maxTenantRows {
		name = ""
		if t = qs.tenants[name]; t != nil {
			return t
		}
	}
	limit := qs.limits[name]
	t = &tenantState{name: name, limit: limit}
	now := qs.now()
	if limit.BytesPerSec > 0 {
		t.bytes = newTokenBucket(float64(limit.BytesPerSec), float64(limit.BytesPerSec), now)
	}
	if limit.BatchesPerSec > 0 {
		t.batch = newTokenBucket(float64(limit.BatchesPerSec), float64(limit.BurstBatches), now)
	}
	qs.tenants[name] = t
	return t
}

// throttle paces one outgoing frame of wireBytes against the tenant's rate
// limits, sleeping out any bucket debt. It returns errQoSCanceled if cancel
// fires mid-sleep.
func (qs *qosState) throttle(t *tenantState, wireBytes int, cancel <-chan struct{}) error {
	if t.bytes == nil && t.batch == nil {
		return nil
	}
	now := qs.now()
	var d time.Duration
	if t.bytes != nil {
		d = t.bytes.take(float64(wireBytes), now)
	}
	if t.batch != nil {
		if bd := t.batch.take(1, now); bd > d {
			d = bd
		}
	}
	if d <= 0 {
		return nil
	}
	t.mu.Lock()
	t.throttled += d
	t.mu.Unlock()
	if !qs.sleep(d, cancel) {
		return errQoSCanceled
	}
	return nil
}

// pace holds one outgoing frame of wireBytes inside the tenant's fair-share
// lead bound, sleeping in pacer steps until the charge is admitted. It
// returns errQoSCanceled if cancel fires mid-pause.
func (qs *qosState) pace(t *tenantState, wireBytes int, cancel <-chan struct{}) error {
	for {
		wait := qs.pacer.admit(t.name, t.weight(), int64(wireBytes), qs.now())
		if wait <= 0 {
			return nil
		}
		t.mu.Lock()
		t.paced += wait
		t.mu.Unlock()
		if !qs.sleep(wait, cancel) {
			return errQoSCanceled
		}
	}
}

// TenantSnapshot is the JSON form of one tenant's counters on /metrics.
type TenantSnapshot struct {
	Tenant      string  `json:"tenant"`
	Weight      int     `json:"weight"`
	Sessions    int     `json:"sessions"`
	Batches     int64   `json:"batches_sent"`
	Bytes       int64   `json:"bytes_sent"`
	ThrottledMs float64 `json:"throttled_ms"`
	PacedMs     float64 `json:"paced_ms"`
}

// snapshot returns per-tenant rows sorted by name.
func (qs *qosState) snapshot() []TenantSnapshot {
	qs.mu.Lock()
	states := make([]*tenantState, 0, len(qs.tenants))
	for _, t := range qs.tenants {
		states = append(states, t)
	}
	qs.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(states))
	for _, t := range states {
		t.mu.Lock()
		out = append(out, TenantSnapshot{
			Tenant:      t.name,
			Weight:      t.weight(),
			Sessions:    t.sessions,
			Batches:     t.batchesSrv,
			Bytes:       t.bytesSrv,
			ThrottledMs: float64(t.throttled.Microseconds()) / 1000,
			PacedMs:     float64(t.paced.Microseconds()) / 1000,
		})
		t.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
