package cache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blob is the trivial refcounted test value. The last Release poisons the
// bytes, so a reader holding a value the cache released too early sees wrong
// bytes (and -race sees the write); refcount misuse in either direction
// panics.
type blob struct {
	refs atomic.Int32
	b    []byte
}

func newBlob(n int, fill byte) *blob {
	v := &blob{b: make([]byte, n)}
	for i := range v.b {
		v.b[i] = fill
	}
	v.refs.Store(1)
	return v
}

func (v *blob) Retain() {
	if v.refs.Add(1) <= 1 {
		panic("blob: Retain on a released value")
	}
}

func (v *blob) Release() {
	switch n := v.refs.Add(-1); {
	case n < 0:
		panic("blob: over-released")
	case n == 0:
		for i := range v.b {
			v.b[i] = 0xDD
		}
	}
}

func (v *blob) Size() int64 { return int64(len(v.b)) }

func (v *blob) intact(n int, fill byte) bool {
	return len(v.b) == n && v.b[0] == fill && v.b[n-1] == fill
}

func newCache(budget int64) *SingleFlight[int, *blob] {
	return New[int, *blob](budget, true, nil)
}

// The owner's half of Acquire taken apart, so a test can hold a claim open
// while waiters park on it: claim wins a key that nobody holds (false when
// the lower tier had it), fulfill publishes it.
func (c *SingleFlight[K, V]) claim(key K) bool {
	hit, wait, claimed := c.getOrClaim(key)
	if wait != nil {
		panic("test claim on a key already in flight")
	}
	if !claimed {
		hit.Release()
	}
	return claimed
}

func (c *SingleFlight[K, V]) fulfill(key K, v V) { c.publish(key, v, true) }

// tryGet is a non-blocking probe: a ready entry is returned retained (a hit,
// freshened in the LRU), anything else is left untouched.
func (c *SingleFlight[K, V]) tryGet(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, found := c.entries[key]; found && e.state == ready {
		return c.hitLocked(e), true
	}
	return v, false
}

// put claims and fulfills key with an n-byte value, dropping the fulfiller's
// own reference.
func put(t *testing.T, c *SingleFlight[int, *blob], key, n int) {
	t.Helper()
	if !c.claim(key) {
		t.Fatalf("claim %d failed", key)
	}
	v := newBlob(n, byte(key))
	c.fulfill(key, v)
	v.Release()
}

// cached probes key without claiming it.
func cached(c *SingleFlight[int, *blob], key int) bool {
	v, ok := c.tryGet(key)
	if ok {
		v.Release()
	}
	return ok
}

// waitFor polls cond (a counter reaching a value) instead of sleeping a
// guessed interval.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlight: one claimer, K waiters on the same key. All waiters must
// block until Fulfill and then observe the same bytes; the counters must show
// exactly one miss (one computation) and K waits.
func TestSingleFlight(t *testing.T) {
	const K = 8
	c := newCache(1 << 20)
	if _, wait, claimed := c.getOrClaim(0); wait != nil || !claimed {
		t.Fatal("first getOrClaim did not claim")
	}

	ok := make([]bool, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, w, cl := c.getOrClaim(0)
			if cl || w == nil {
				t.Errorf("waiter %d: expected in-flight entry, got claim=%v", i, cl)
				return
			}
			v, served, err := c.wait(w, nil)
			if err != nil || !served {
				t.Errorf("waiter %d: wait ok=%v err=%v", i, served, err)
				return
			}
			ok[i] = v.intact(64, 0x42)
			v.Release()
		}(i)
	}
	waitFor(t, "K registered waiters", func() bool { return c.Stats().SingleflightWait == K })

	v := newBlob(64, 0x42)
	c.fulfill(0, v)
	v.Release() // claimer's own reference
	wg.Wait()

	for i := range ok {
		if !ok[i] {
			t.Fatalf("waiter %d observed wrong bytes", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.SingleflightWait != K || st.Hits != 0 {
		t.Fatalf("stats %+v, want misses=1 waits=%d", st, K)
	}
	// K pre-paid references were consumed: only the cache's own is left.
	if n := v.refs.Load(); n != 1 {
		t.Fatalf("%d references after all waiters released, want 1 (the cache's)", n)
	}

	// A late requester is a plain hit on the ready entry.
	if !cached(c, 0) {
		t.Fatal("ready entry did not hit")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("hits %d after ready lookup, want 1", st.Hits)
	}
}

// TestAbandonWakesWaiters: an owner that fails must not strand its waiters —
// they wake, retry, and one of them claims and computes. Abandoning anything
// but an in-flight claim is a no-op.
func TestAbandonWakesWaiters(t *testing.T) {
	c := newCache(1 << 20)
	c.abandon(1) // absent key: no-op
	if !c.claim(1) {
		t.Fatal("setup claim failed")
	}

	computes := 0
	done := make(chan bool, 1)
	go func() {
		v, err := c.Acquire(1, nil, func() (*blob, error) {
			computes++
			return newBlob(16, 0x7), nil
		})
		if err != nil {
			t.Errorf("Acquire after abandon: %v", err)
			done <- false
			return
		}
		done <- v.intact(16, 0x7)
		v.Release()
	}()

	waitFor(t, "the waiter to park", func() bool { return c.Stats().SingleflightWait == 1 })
	c.abandon(1)

	select {
	case ok := <-done:
		if !ok {
			t.Fatal("fallback compute produced wrong bytes")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stranded after Abandon")
	}
	if computes != 1 {
		t.Fatalf("computes %d, want 1", computes)
	}
	c.abandon(1) // ready entry: no-op
	if st := c.Stats(); st.Abandoned != 1 || st.Misses != 2 || !cached(c, 1) {
		t.Fatalf("stats %+v, want abandoned=1, misses=2 (claim, re-claim) and the re-claimed entry cached", st)
	}
}

// TestComputeFailureAbandons: an erroring or panicking compute abandons the
// claim it won, so the key stays claimable.
func TestComputeFailureAbandons(t *testing.T) {
	c := newCache(1 << 20)
	boom := errors.New("boom")
	if _, err := c.Acquire(3, nil, func() (*blob, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Acquire error %v, want compute's", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("compute panic did not propagate")
			}
		}()
		c.Acquire(3, nil, func() (*blob, error) { panic("poisoned") })
	}()
	if st := c.Stats(); st.Abandoned != 2 || st.Entries != 0 {
		t.Fatalf("stats %+v, want both failed claims abandoned", st)
	}
	if !c.claim(3) {
		t.Fatal("key not claimable after its owners failed")
	}
}

// TestWaitTimeout: a stuck owner must not wedge a waiter; the wait times out
// and Acquire computes privately without touching the stuck claim and
// without publishing.
func TestWaitTimeout(t *testing.T) {
	c := newCache(1 << 20)
	c.timeout = 20 * time.Millisecond
	if !c.claim(2) {
		t.Fatal("setup claim failed")
	}

	v, err := c.Acquire(2, nil, func() (*blob, error) { return newBlob(8, 0x9), nil })
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if !v.intact(8, 0x9) {
		t.Fatal("timed-out Acquire returned wrong bytes")
	}
	if n := v.refs.Load(); n != 1 {
		t.Fatalf("private result holds %d references, want 1: it must not be published", n)
	}
	v.Release()
	if st := c.Stats(); st.Bypassed != 1 || cached(c, 2) {
		t.Fatalf("stats %+v: timed-out waiter must count as bypassed and leave the claim in flight", st)
	}

	// The stuck claim is untouched: fulfilling it later still works, pre-pays
	// nobody (the waiter unregistered), and serves subsequent lookups.
	owner := newBlob(8, 0xa)
	c.fulfill(2, owner)
	if n := owner.refs.Load(); n != 2 {
		t.Fatalf("%d references after Fulfill, want 2 (owner + cache): timed-out waiter still registered", n)
	}
	owner.Release()
	h, ok := c.tryGet(2)
	if !ok || !h.intact(8, 0xa) {
		t.Fatal("original claim unusable after a waiter timed out")
	}
	h.Release()
}

// TestWaitCancel: a waiter whose cancel fires leaves with ErrWaitCanceled.
// Whichever way it races the owner's Fulfill, it either withdraws its
// registration or returns the pre-paid reference — never both, never neither
// — so once the entry is evicted nothing holds the value.
func TestWaitCancel(t *testing.T) {
	for round := 0; round < 200; round++ {
		c := newCache(1 << 20)
		if !c.claim(0) {
			t.Fatal("setup claim failed")
		}
		cancel := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			v, err := c.Acquire(0, cancel, func() (*blob, error) {
				return nil, errors.New("waiter must not compute")
			})
			if err == nil {
				v.Release()
			}
			done <- err
		}()
		waitFor(t, "the waiter to park", func() bool { return c.Stats().SingleflightWait == 1 })

		v := newBlob(8, 1)
		if round%2 == 0 {
			close(cancel)
			if err := <-done; !errors.Is(err, ErrWaitCanceled) {
				t.Fatalf("canceled wait returned %v", err)
			}
			c.fulfill(0, v)
		} else {
			go close(cancel) // race the Fulfill
			c.fulfill(0, v)
			if err := <-done; err != nil && !errors.Is(err, ErrWaitCanceled) {
				t.Fatalf("racing wait returned %v", err)
			}
		}
		c.Purge() // drops the cache's reference
		if n := v.refs.Load(); n != 1 {
			t.Fatalf("round %d: %d references left besides the owner's", round, n-1)
		}
		v.Release()
	}
}

// TestNonBlockingBypass: on a non-blocking cache (simulated clocks) a caller
// that finds a key in flight never parks and never registers — it computes
// privately and is counted as bypassed.
func TestNonBlockingBypass(t *testing.T) {
	c := New[int, *blob](1<<20, false, nil)
	if !c.claim(0) {
		t.Fatal("setup claim failed")
	}
	v, err := c.Acquire(0, nil, func() (*blob, error) { return newBlob(4, 5), nil })
	if err != nil || !v.intact(4, 5) {
		t.Fatalf("bypass Acquire: %v", err)
	}
	v.Release()
	st := c.Stats()
	if st.Misses != 1 || st.Bypassed != 1 || st.SingleflightWait != 0 {
		t.Fatalf("stats %+v, want misses=1 bypassed=1 waits=0", st)
	}
	owner := newBlob(4, 6)
	c.fulfill(0, owner)
	if n := owner.refs.Load(); n != 2 {
		t.Fatalf("%d references after Fulfill, want 2: the bypasser registered as a waiter", n)
	}
	owner.Release()
}

// TestEvictionOrder pins the LRU discipline: the least recently used ready
// entry leaves first, and a hit protects an entry by moving it to the MRU
// end.
func TestEvictionOrder(t *testing.T) {
	const size = 100
	c := newCache(3 * size)
	for key := 0; key < 4; key++ { // budget 3: the fourth evicts 0, the LRU
		put(t, c, key, size)
	}
	if cached(c, 0) {
		t.Fatal("entry 0 survived over-budget insert")
	}
	if !cached(c, 1) || !cached(c, 2) || !cached(c, 3) {
		t.Fatal("younger entries evicted out of order")
	}

	// The probes left the order 1,2,3; touch 1 to protect it.
	if !cached(c, 1) {
		t.Fatal("entry 1 missing before protection check")
	}
	put(t, c, 4, size) // evicts 2: the oldest untouched entry
	if cached(c, 2) {
		t.Fatal("LRU order violated: 2 should have been evicted")
	}
	if !cached(c, 1) || !cached(c, 3) || !cached(c, 4) {
		t.Fatal("protected or fresh entries evicted")
	}
	st := c.Stats()
	if st.Evicted != 2 || st.BytesUsed != 3*size || st.Entries != 3 {
		t.Fatalf("stats %+v, want evicted=2 used=%d entries=3", st, 3*size)
	}
}

// TestSoftBudget: publish first, evict second — an entry larger than the
// whole budget still serves its waiters but does not stay resident, and a
// reader that retained a value before its eviction keeps valid bytes until
// its own Release.
func TestSoftBudget(t *testing.T) {
	c := newCache(250)
	if !c.claim(99) {
		t.Fatal("oversize claim failed")
	}
	got := make(chan *blob, 1)
	go func() {
		v, err := c.Acquire(99, nil, func() (*blob, error) {
			return nil, errors.New("waiter must not compute")
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		got <- v
	}()
	waitFor(t, "the waiter to park", func() bool { return c.Stats().SingleflightWait == 1 })

	big := newBlob(1000, 0xee)
	c.fulfill(99, big)
	big.Release()
	if st := c.Stats(); st.BytesUsed != 0 || st.Evicted != 1 || cached(c, 99) {
		t.Fatalf("oversize entry stayed resident: %+v", st)
	}
	v := <-got
	if v == nil || !v.intact(1000, 0xee) {
		t.Fatal("waiter on an evicted oversize entry did not get its bytes")
	}
	v.Release() // last reference: now the value really retires
	if big.b[0] != 0xDD {
		t.Fatal("value not freed after its last reader released it")
	}
}

// fakeTier is an in-memory lower tier honouring the Tier contract: Get
// hands out its own retained copy, Put is a no-op for a key it holds.
type fakeTier struct {
	mu     sync.Mutex
	held   map[int]*blob
	offers []int // every key Put was called with, in order
	broken bool  // Get fails: the record could not be read back
}

func (ft *fakeTier) Get(key int) (*blob, bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	v, ok := ft.held[key]
	if !ok || ft.broken {
		return nil, false
	}
	v.Retain()
	return v, true
}

func (ft *fakeTier) Put(key int, v *blob) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.offers = append(ft.offers, key)
	if !v.intact(len(v.b), byte(key)) {
		panic("tier offered a value that was already released")
	}
	if _, ok := ft.held[key]; !ok {
		v.Retain()
		ft.held[key] = v
	}
}

func (ft *fakeTier) offered() []int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return append([]int(nil), ft.offers...)
}

func TestTier(t *testing.T) {
	const size = 100
	noCompute := func() (*blob, error) { return nil, errors.New("tier hit must not compute") }

	t.Run("hit on claim publishes without write-back", func(t *testing.T) {
		ft := &fakeTier{held: map[int]*blob{7: newBlob(size, 7), 8: newBlob(size, 8)}}
		c := New[int, *blob](10*size, true, ft)
		if c.claim(7) {
			t.Fatal("claim left a tier-resident key for the caller to compute")
		}
		if !cached(c, 7) {
			t.Fatal("tier hit was not published into memory")
		}
		v, err := c.Acquire(8, nil, noCompute)
		if err != nil || !v.intact(size, 8) {
			t.Fatalf("Acquire of a tier-resident key: %v", err)
		}
		v.Release()
		if got := ft.offered(); len(got) != 0 {
			t.Fatalf("values that came from the tier were written back to it: %v", got)
		}
		if st := c.Stats(); st.Misses != 2 || st.Hits != 1 || st.Entries != 2 {
			t.Fatalf("stats %+v, want both claims counted as memory misses", st)
		}
	})

	t.Run("computed values and victims are offered", func(t *testing.T) {
		ft := &fakeTier{held: map[int]*blob{}}
		c := New[int, *blob](2*size, true, ft)
		put(t, c, 1, size)
		put(t, c, 2, size)
		put(t, c, 3, size) // evicts 1, which the tier already holds
		if got := ft.offered(); len(got) != 4 || got[3] != 1 {
			t.Fatalf("offers %v, want 1,2,3 at publish then victim 1", got)
		}
		if n := ft.held[1].refs.Load(); n != 1 {
			t.Fatalf("victim the tier already held gained a reference (%d): Put must be a no-op", n)
		}
		// The evicted key comes back from the tier, not from compute, and is
		// offered again only when it is evicted in turn.
		v, err := c.Acquire(1, nil, noCompute)
		if err != nil || !v.intact(size, 1) {
			t.Fatalf("Acquire of a demoted key: %v", err)
		}
		v.Release()
		if got := ft.offered(); len(got) != 5 || got[4] != 2 {
			t.Fatalf("offers %v, want exactly one more: victim 2", got)
		}
	})

	t.Run("Purge releases every entry and offers none", func(t *testing.T) {
		ft := &fakeTier{held: map[int]*blob{}}
		c := New[int, *blob](10*size, true, ft)
		put(t, c, 1, size)
		put(t, c, 2, size)
		reader, err := c.Acquire(2, nil, noCompute)
		if err != nil {
			t.Fatal(err)
		}
		if !c.claim(3) {
			t.Fatal("claim 3 failed")
		}
		c.Purge()
		if st := c.Stats(); st.Entries != 1 || st.BytesUsed != 0 {
			t.Fatalf("after Purge: %+v, want only the in-flight claim left", st)
		}
		if got := ft.offered(); len(got) != 2 {
			t.Fatalf("offers %v, want the two made at publish and none at Purge", got)
		}
		if n := ft.held[1].refs.Load(); n != 1 {
			t.Fatalf("value 1 holds %d references after Purge, want only the tier's", n)
		}
		if !reader.intact(size, 2) {
			t.Fatal("Purge took a value out from under its reader")
		}
		reader.Release()
		v := newBlob(size, 3)
		c.fulfill(3, v) // the claimant finishes into the purged cache
		v.Release()
		if !cached(c, 3) {
			t.Fatal("a claim open across Purge could not be fulfilled")
		}
	})

	t.Run("failing Get falls through to compute", func(t *testing.T) {
		ft := &fakeTier{held: map[int]*blob{5: newBlob(size, 5)}, broken: true}
		c := New[int, *blob](10*size, true, ft)
		if !c.claim(5) {
			t.Fatal("Claim did not hand the key to the caller after the tier failed")
		}
		c.abandon(5)
		computes := 0
		v, err := c.Acquire(5, nil, func() (*blob, error) {
			computes++
			return newBlob(size, 5), nil
		})
		if err != nil || computes != 1 {
			t.Fatalf("Acquire past a failing tier: err=%v computes=%d", err, computes)
		}
		v.Release()
		if got := ft.offered(); len(got) != 1 || got[0] != 5 {
			t.Fatalf("offers %v, want the recomputed value offered once", got)
		}
	})
}

// TestConcurrentChurn hammers one small cache over a tier from many
// goroutines mixing claims, fulfills, hits, waits, evictions and tier loads
// — the -race workout for the state machine.
func TestConcurrentChurn(t *testing.T) {
	ft := &fakeTier{held: map[int]*blob{}}
	c := New[int, *blob](400, true, ft) // 4 values of 100: constant eviction pressure
	const (
		workers = 8
		keys    = 16
		rounds  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := (w + r) % keys
				v, err := c.Acquire(key, nil, func() (*blob, error) {
					return newBlob(100, byte(key)), nil
				})
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if !v.intact(100, byte(key)) {
					t.Errorf("worker %d round %d: wrong bytes for key %d", w, r, key)
				}
				v.Release()
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.BytesUsed > st.BytesBudget {
		t.Fatalf("budget exceeded at rest: %+v", st)
	}
	if total := st.Hits + st.Misses + st.SingleflightWait; total < workers*rounds {
		t.Fatalf("counters %+v do not cover %d acquires", st, workers*rounds)
	}
	// Every value was offered to the tier when it was made; once memory
	// lets go of everything, only the tier's references remain.
	c.Purge()
	for key, v := range ft.held {
		if n := v.refs.Load(); n != 1 || !v.intact(100, byte(key)) {
			t.Fatalf("key %d: %d references at rest, want 1 (the tier's)", key, n)
		}
	}
}
