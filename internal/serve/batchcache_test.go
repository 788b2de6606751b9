package serve

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"lotus/internal/tensor"
)

func cacheKeyN(gid int) BatchKey {
	return BatchKey{Fingerprint: 0x107, Epoch: 0, GlobalID: gid}
}

// cacheFrame builds a pooled frame of n bytes all set to fill.
func cacheFrame(n int, fill byte) *Frame {
	box := frameBufFor(n)
	for i := 0; i < n; i++ {
		*box = append(*box, fill)
	}
	return newFrame(box, Digest(*box))
}

func TestFrameRefcountLifecycle(t *testing.T) {
	f := cacheFrame(32, 0xab)
	if f.Len() != 32 {
		t.Fatalf("len %d, want 32", f.Len())
	}
	f.Retain() // 2 refs
	f.Release()
	if got := f.Bytes(); len(got) != 32 || got[0] != 0xab {
		t.Fatal("frame bytes gone while a reference is held")
	}
	f.Release() // last ref: recycled
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	f.Release()
}

func TestEncodeBatchFrameByteIdentity(t *testing.T) {
	m := &Batch{
		Epoch: 3, GlobalID: 17,
		Indices: []int{5, 9, 2}, Labels: []int{1, 0, 7},
		Dtype: tensor.Uint8, Shape: []int{3, 8, 8},
		U8: bytes.Repeat([]byte{0x5a}, 3*8*8),
	}
	want := EncodeBatch(m)
	for i := 0; i < 3; i++ { // repeated to exercise pooled-buffer reuse
		f := encodeBatchFrame(m)
		if !bytes.Equal(f.Bytes(), want) {
			t.Fatalf("pooled encode differs from EncodeBatch on round %d", i)
		}
		if f.Len() != len(want) {
			t.Fatalf("pooled frame len %d, want %d", f.Len(), len(want))
		}
		f.Release()
	}
}

// TestEncodeBatchFramePooledAllocs is the allocs/op guard for the pooled
// encode path: steady-state encoding must reuse pooled buffers, not allocate
// a fresh payload per batch like EncodeBatch does.
func TestEncodeBatchFramePooledAllocs(t *testing.T) {
	m := &Batch{
		Epoch: 0, GlobalID: 1,
		Indices: make([]int, 64), Labels: make([]int, 64),
		Dtype: tensor.Uint8, Shape: []int{64, 3, 32, 32},
	}
	for i := 0; i < 16; i++ { // warm the pools
		encodeBatchFrame(m).Release()
	}
	avg := testing.AllocsPerRun(500, func() {
		encodeBatchFrame(m).Release()
	})
	if avg >= 1.0 {
		t.Fatalf("pooled encode averages %.2f allocs/op, want < 1 (pool reuse)", avg)
	}
}

// The single-flight state machine (claim / wait / publish / abandon, LRU
// order, timeouts, the tier seam) is tested once, in internal/cache. The two
// tests below run pooled Frames through it: a frame recycled while the cache
// or a reader still counts on it shows up here as wrong bytes.

// TestBatchCacheByteBudget: the budget bounds resident bytes; an entry larger
// than the whole budget still serves its waiters (publish first, evict
// second) but does not stay resident.
func TestBatchCacheByteBudget(t *testing.T) {
	c := NewBatchCache(250, nil)
	for gid := 0; gid < 10; gid++ {
		f, err := c.Acquire(cacheKeyN(gid), nil, func() (*Frame, error) {
			return cacheFrame(100, byte(gid)), nil
		})
		if err != nil {
			t.Fatalf("acquire %d: %v", gid, err)
		}
		// The computer's reference outlives eviction: bytes stay valid.
		if f.Bytes()[0] != byte(gid) {
			t.Fatalf("frame %d corrupted after publish", gid)
		}
		f.Release()
		if st := c.Stats(); st.BytesUsed > 250 {
			t.Fatalf("after insert %d: %d bytes resident, budget 250", gid, st.BytesUsed)
		}
	}

	// Oversize frame: published (waiter served), then immediately evicted.
	key := cacheKeyN(99)
	waiterParked := make(chan struct{})
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		big, err := c.Acquire(key, nil, func() (*Frame, error) {
			<-waiterParked
			return cacheFrame(1000, 0xee), nil
		})
		if err != nil {
			t.Errorf("oversize owner: %v", err)
			return
		}
		big.Release()
	}()
	for c.Stats().Misses < 11 { // let the owner claim the key
		time.Sleep(time.Millisecond)
	}
	waiterGot := make(chan int, 1)
	go func() {
		f, err := c.Acquire(key, nil, func() (*Frame, error) {
			return nil, errors.New("waiter must not compute")
		})
		if err != nil {
			waiterGot <- -1
			return
		}
		n := f.Len()
		f.Release()
		waiterGot <- n
	}()
	for c.Stats().SingleflightWait == 0 { // let the waiter park
		time.Sleep(time.Millisecond)
	}
	close(waiterParked)
	if n := <-waiterGot; n != 1000 {
		t.Fatalf("waiter on oversize frame got %d bytes, want 1000", n)
	}
	<-ownerDone
	st := c.Stats()
	if st.BytesUsed > 250 {
		t.Fatalf("oversize frame stayed resident: %d bytes", st.BytesUsed)
	}
	recomputed := false
	f, err := c.Acquire(key, nil, func() (*Frame, error) {
		recomputed = true
		return cacheFrame(1000, 0xee), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if !recomputed {
		t.Fatal("oversize entry still cached")
	}
}

// TestBatchCacheConcurrentChurn hammers one small cache of pooled frames from
// many goroutines mixing claims, fulfills, hits, waits, and evictions.
func TestBatchCacheConcurrentChurn(t *testing.T) {
	c := NewBatchCache(400, nil) // 4 frames of 100: constant eviction pressure
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
				gid := (w + r) % keys
				f, err := c.Acquire(cacheKeyN(gid), nil, func() (*Frame, error) {
					return cacheFrame(100, byte(gid)), nil
				})
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if f.Len() != 100 || f.Bytes()[0] != byte(gid) {
					t.Errorf("worker %d round %d: wrong bytes for gid %d", w, r, gid)
				}
				f.Release()
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.BytesUsed > 400 {
		t.Fatalf("budget exceeded at rest: %d", st.BytesUsed)
	}
	if total := st.Hits + st.Misses + st.SingleflightWait; total < workers*rounds {
		t.Fatalf("counters %+v do not cover %d acquires", st, workers*rounds)
	}
}
