// Package cache holds the one single-flight, refcounted, byte-budgeted LRU
// cache the serving stack's memory tiers are built on, and the Tier seam for
// whatever sits underneath one. serve.BatchCache (encoded batch frames) and
// pipeline.SampleCache (post-prefix sample snapshots) are thin adapters over
// it: a key type, a value type, and a Tier over the disk store.
package cache

import (
	"container/list"
	"errors"
	"sync"
	"time"
)

// Value is what the cache stores: an immutable, refcounted payload. Every
// value a caller receives from the cache carries one reference owned by that
// caller, dropped with exactly one Release; the last Release frees the
// payload, so an entry can be evicted while readers still hold its bytes.
type Value interface {
	Retain()
	Release()
	// Size is the payload's charge against the byte budget.
	Size() int64
}

// Tier is a slower, larger tier below a SingleFlight (the disk store today;
// a peer's cache is the same shape). The cache asks it once per claim won,
// before computing, and offers it every value it computes or evicts.
type Tier[K comparable, V Value] interface {
	// Get returns the tier's copy of key holding one reference owned by the
	// caller. A record the tier cannot verify or decode is dropped from the
	// tier and reported as a miss, never served.
	Get(key K) (V, bool)
	// Put offers v for key. Callers are on the serving path (holding no cache
	// lock, their waiters already woken): it may make them wait for a bounded
	// backlog to drain, never for more, and must not keep v past the call
	// without its own reference. A key the tier already holds is a no-op,
	// decided before any encoding.
	Put(key K, v V)
}

// waitTimeout bounds a wait on another caller's in-flight computation; on
// expiry the waiter computes privately, so liveness never depends on another
// session's progress.
const waitTimeout = 30 * time.Second

// ErrWaitCanceled reports that the caller's cancel channel fired while it
// was parked on another caller's in-flight computation.
var ErrWaitCanceled = errors.New("cache: single-flight wait canceled")

var errWaitTimeout = errors.New("cache: single-flight wait timed out")

// SingleFlight caches values that are a pure function of their key, so every
// requester of a key needs the same bytes: the first requester claims the key
// and computes (or loads it from the lower tier) once, and everyone else
// either hits the ready entry or waits on the in-flight one.
//
// Eviction is LRU under a byte budget (container/list, front = least
// recently used, O(1) everything). The budget is a soft bound at one-entry
// granularity: a value is always published first and evicted by the overflow
// scan second, so a single value larger than the whole budget still serves
// its waiters before leaving.
type SingleFlight[K comparable, V Value] struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[K]*entry[K, V]
	lru     *list.List // of *entry; only ready entries are listed
	tier    Tier[K, V] // nil when nothing sits underneath
	// blocking is false when requesters run on a simulated clock, whose
	// procs must never park on channels the clock cannot see: they pass an
	// in-flight entry by and compute privately instead of waiting.
	blocking bool
	timeout  time.Duration

	hits, misses, waits, bypassed, evicted, abandoned int64
}

type entryState int

const (
	inFlight entryState = iota
	ready
	abandoned
)

// entry is one key's slot: in flight (owner computing, waiters parked on
// ready), ready (value published), or abandoned (owner failed; waiters
// retry). state and val are written only while holding SingleFlight.mu and
// only before close(ready), so a waiter that has observed the close may read
// both without the lock.
type entry[K comparable, V Value] struct {
	key     K
	state   entryState
	ready   chan struct{}
	val     V
	size    int64
	waiters int
	elem    *list.Element
}

// New returns a cache bounded to budget bytes of payload over tier (nil for
// none). blocking selects whether requesters may park on another caller's
// in-flight computation; see SingleFlight.blocking.
func New[K comparable, V Value](budget int64, blocking bool, tier Tier[K, V]) *SingleFlight[K, V] {
	return &SingleFlight[K, V]{
		budget:   budget,
		entries:  make(map[K]*entry[K, V]),
		lru:      list.New(),
		tier:     tier,
		blocking: blocking,
		timeout:  waitTimeout,
	}
}

func (c *SingleFlight[K, V]) hitLocked(e *entry[K, V]) V {
	c.hits++
	c.lru.MoveToBack(e.elem)
	e.val.Retain()
	return e.val
}

// getOrClaim is the blocking-side lookup. Exactly one of the three results
// is meaningful:
//
//   - wait == nil && !claimed: hit carries a reference for the caller (a
//     ready entry, or the lower tier's copy of a key the caller just claimed).
//   - wait != nil: another owner is computing. On a blocking cache the
//     caller is registered as a waiter and MUST call wait (its reference to
//     the eventual value is pre-paid); on a non-blocking cache it is not
//     registered and must not.
//   - claimed: the caller owns the key and must publish or abandon it.
func (c *SingleFlight[K, V]) getOrClaim(key K) (hit V, wait *entry[K, V], claimed bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		defer c.mu.Unlock()
		if e.state == ready {
			return c.hitLocked(e), nil, false
		}
		if c.blocking {
			c.waits++
			e.waiters++
		}
		return hit, e, false
	}
	c.misses++
	c.entries[key] = &entry[K, V]{key: key, ready: make(chan struct{})}
	c.mu.Unlock()
	// Every claim winner asks the lower tier before computing; its copy is
	// published as the memory entry (waking any waiters) without being
	// written back to where it came from.
	if c.tier != nil {
		if v, ok := c.tier.Get(key); ok {
			c.publish(key, v, false)
			return v, nil, false
		}
	}
	return hit, nil, true
}

// wait parks on an in-flight entry until the owner resolves it, cancel
// fires, or the wait timeout elapses. On ok=true the returned value carries
// a reference for the caller. ok=false with a nil error means the owner
// abandoned the claim: retry getOrClaim.
func (c *SingleFlight[K, V]) wait(e *entry[K, V], cancel <-chan struct{}) (v V, ok bool, err error) {
	t := time.NewTimer(c.timeout)
	defer t.Stop()
	select {
	case <-e.ready:
		if e.state == ready {
			return e.val, true, nil // reference pre-paid by publish
		}
		return v, false, nil
	case <-cancel:
		return v, false, c.unregister(e, ErrWaitCanceled)
	case <-t.C:
		return v, false, c.unregister(e, errWaitTimeout)
	}
}

// unregister withdraws a waiter that gave up. If the entry resolved
// concurrently, the pre-paid reference is returned instead — never both.
func (c *SingleFlight[K, V]) unregister(e *entry[K, V], err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-e.ready:
		if e.state == ready {
			e.val.Release()
		}
	default:
		e.waiters--
	}
	return err
}

// publish installs the value for a key the caller claimed. The cache takes
// its own reference and pre-pays one per registered waiter; the caller keeps
// the reference it arrived with. With offer set the value is offered to the
// lower tier (a value that came from there is not written back), and entries
// over budget are evicted LRU-first after the insert.
func (c *SingleFlight[K, V]) publish(key K, v V, offer bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok || e.state != inFlight {
		c.mu.Unlock()
		panic("cache: publish on a key the caller does not own")
	}
	for i := 0; i < e.waiters+1; i++ { // waiters + the cache's own reference
		v.Retain()
	}
	e.val = v
	e.size = v.Size()
	e.state = ready
	e.elem = c.lru.PushBack(e)
	c.used += e.size
	victims := c.evictOverLocked()
	close(e.ready)
	c.mu.Unlock()
	if offer && c.tier != nil {
		c.tier.Put(key, v)
	}
	c.retire(victims)
}

// abandon resolves a claimed key without data: the entry leaves the cache and
// every waiter wakes to retry (one of them will claim the key). Abandoning a
// key that is not an in-flight claim is a no-op.
func (c *SingleFlight[K, V]) abandon(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.state != inFlight {
		return
	}
	e.state = abandoned
	delete(c.entries, key)
	c.abandoned++
	close(e.ready)
}

// Acquire obtains key's value whatever it takes: cache hit, the lower tier's
// copy, waiting out another caller's in-flight computation, or computing it
// after claiming. The returned value always carries a reference for the
// caller. compute's result is published only when the caller won the claim —
// a failing (or panicking) compute abandons it so waiters retry. A caller
// that may not wait (non-blocking cache) or whose wait timed out computes
// privately without touching the other owner's claim and without publishing.
// Only cancel surfaces as an error of Acquire's own.
func (c *SingleFlight[K, V]) Acquire(key K, cancel <-chan struct{}, compute func() (V, error)) (V, error) {
	for {
		hit, wait, claimed := c.getOrClaim(key)
		switch {
		case claimed:
			return c.computeClaimed(key, compute)
		case wait == nil:
			return hit, nil
		case !c.blocking:
			return c.bypass(compute)
		}
		v, ok, err := c.wait(wait, cancel)
		switch {
		case err == errWaitTimeout:
			return c.bypass(compute)
		case err != nil || ok:
			return v, err
		}
		// Owner abandoned: loop and race for the claim.
	}
}

func (c *SingleFlight[K, V]) computeClaimed(key K, compute func() (V, error)) (V, error) {
	fulfilled := false
	defer func() {
		if !fulfilled {
			c.abandon(key)
		}
	}()
	v, err := compute()
	if err == nil {
		c.publish(key, v, true)
		fulfilled = true
	}
	return v, err
}

func (c *SingleFlight[K, V]) bypass(compute func() (V, error)) (V, error) {
	c.mu.Lock()
	c.bypassed++
	c.mu.Unlock()
	return compute()
}

// evictOverLocked pops LRU entries until used fits the budget, returning the
// victims so the caller can retire them outside the lock. In-flight entries
// are never listed, so only ready values are evictable.
func (c *SingleFlight[K, V]) evictOverLocked() []*entry[K, V] {
	var victims []*entry[K, V]
	for c.used > c.budget && c.lru.Len() > 0 {
		c.evicted++
		victims = append(victims, c.popLRULocked())
	}
	return victims
}

// popLRULocked unlists the least recently used ready entry.
func (c *SingleFlight[K, V]) popLRULocked() *entry[K, V] {
	e := c.lru.Remove(c.lru.Front()).(*entry[K, V])
	delete(c.entries, e.key)
	c.used -= e.size
	return e
}

// retire offers eviction victims to the lower tier and drops the cache's
// references; refcounts keep a victim's bytes alive for any reader still
// using them.
func (c *SingleFlight[K, V]) retire(victims []*entry[K, V]) {
	for _, e := range victims {
		if c.tier != nil {
			c.tier.Put(e.key, e.val)
		}
		e.val.Release()
	}
}

// Purge drops every ready entry and the cache's reference to its value — the
// owner's teardown, for values whose memory no collector reclaims. Nothing is
// offered to the lower tier: it was offered each value when the value was
// made. In-flight entries are their claimants' to finish; the counters stand.
func (c *SingleFlight[K, V]) Purge() {
	c.mu.Lock()
	var victims []*entry[K, V]
	for c.lru.Len() > 0 {
		victims = append(victims, c.popLRULocked())
	}
	c.mu.Unlock()
	for _, e := range victims {
		e.val.Release()
	}
}

// Stats is the JSON form of a cache's counters for /metrics; every memory
// tier reports this one shape. Misses count claims won, i.e. computations
// started or lower-tier loads (a memory miss here, a hit in that tier's own
// counters); hits are ready lookups; singleflight waits are registered waits
// on another caller's claim; bypassed counts private computations past an
// in-flight entry (simulated clocks, timed-out waits).
type Stats struct {
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	SingleflightWait int64 `json:"singleflight_waits"`
	Bypassed         int64 `json:"bypassed"`
	Evicted          int64 `json:"evicted"`
	Abandoned        int64 `json:"abandoned"`
	Entries          int   `json:"entries"`
	BytesUsed        int64 `json:"bytes_used"`
	BytesBudget      int64 `json:"bytes_budget"`
}

// Stats returns a consistent copy of the counters.
func (c *SingleFlight[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:             c.hits,
		Misses:           c.misses,
		SingleflightWait: c.waits,
		Bypassed:         c.bypassed,
		Evicted:          c.evicted,
		Abandoned:        c.abandoned,
		Entries:          len(c.entries),
		BytesUsed:        c.used,
		BytesBudget:      c.budget,
	}
}
