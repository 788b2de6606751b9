package serve

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"lotus/internal/pipeline"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

func startCachedTestServer(t *testing.T, spec workloads.Spec, cacheBytes int64, withHTTP bool) *Server {
	t.Helper()
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		BatchCacheBytes: cacheBytes, Logf: t.Logf})
	httpAddr := ""
	if withHTTP {
		httpAddr = "127.0.0.1:0"
	}
	if err := srv.Start("127.0.0.1:0", httpAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestCachedServingByteIdentity is the cache's correctness acceptance test:
// with the materialized-batch cache enabled, rank/world sessions, a
// repeat full-plan session served almost entirely from cache, and an explicit
// ShardReq subset must all stream frames byte-identical to an uncached local
// DataLoader run — and the epoch must have been preprocessed exactly once.
func TestCachedServingByteIdentity(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, FramesInUse))
	spec := loopbackSpec()
	srv := startCachedTestServer(t, spec, 64<<20, true)
	const world, epochs = 2, 2

	expected := make([][][]byte, epochs)
	for e := 0; e < epochs; e++ {
		expected[e] = localEpochFrames(t, spec, e)
	}
	planLen := len(expected[0])

	// Pass 1: two concurrent rank/world sessions populate the cache.
	type received struct {
		epoch, globalID int
		payload         []byte
	}
	got := make([][]received, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := NewClient(ClientConfig{Addr: srv.Addr(), Rank: rank, World: world,
				Name: fmt.Sprintf("cached-%d", rank)})
			defer c.Close()
			_, errs[rank] = c.Run(epochs, func(b *Batch, payload []byte) {
				got[rank] = append(got[rank], received{b.Epoch, b.GlobalID, append([]byte(nil), payload...)})
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank := range got {
		for _, rec := range got[rank] {
			if !bytes.Equal(rec.payload, expected[rec.epoch][rec.globalID]) {
				t.Fatalf("pass 1 epoch %d batch %d (rank %d): cached-serving frame differs from uncached local run",
					rec.epoch, rec.globalID, rank)
			}
		}
	}

	// Pass 2: a full-plan session re-requests both epochs; the server must
	// serve from cache (hits) and the bytes must still be identical — the
	// client's checksum verification plus this comparison prove it.
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "cached-repeat"})
	repeat := 0
	if _, err := c.Run(epochs, func(b *Batch, payload []byte) {
		repeat++
		if !bytes.Equal(payload, expected[b.Epoch][b.GlobalID]) {
			t.Fatalf("pass 2 epoch %d batch %d: cache-served frame differs from uncached local run",
				b.Epoch, b.GlobalID)
		}
	}); err != nil {
		t.Fatalf("repeat client: %v", err)
	}
	c.Close()
	if repeat != epochs*planLen {
		t.Fatalf("repeat client saw %d frames, want %d", repeat, epochs*planLen)
	}

	// ShardReq subset, out of plan order: the cluster-routing path must hit
	// the same cache entries.
	ids := []int{7, 3, 1}
	sc := NewClient(ClientConfig{Addr: srv.Addr(), Name: "cached-shardreq"})
	var shardGot [][]byte
	if err := sc.FetchShard(0, ids, func(b *Batch, payload []byte) {
		shardGot = append(shardGot, append([]byte(nil), payload...))
	}); err != nil {
		t.Fatalf("shard fetch: %v", err)
	}
	sc.Close()
	if len(shardGot) != len(ids) {
		t.Fatalf("shard fetch returned %d frames, want %d", len(shardGot), len(ids))
	}
	for i, gid := range ids {
		if !bytes.Equal(shardGot[i], expected[0][gid]) {
			t.Fatalf("shard fetch batch %d differs from uncached local run", gid)
		}
	}

	// Exactly-once preprocessing: misses count pipeline-executed batches.
	// Pass 1's disjoint shards computed each epoch's plan once; everything
	// after was hits (no single-flight waits needed — pass 2 ran alone).
	st, ok := srv.CacheStats()
	if !ok {
		t.Fatal("cache enabled but CacheStats reports disabled")
	}
	if want := int64(epochs * planLen); st.Misses != want {
		t.Fatalf("misses %d, want %d (each batch preprocessed exactly once)", st.Misses, want)
	}
	if st.Hits < int64(epochs*planLen+len(ids)) {
		t.Fatalf("hits %d, want >= %d", st.Hits, epochs*planLen+len(ids))
	}
	if st.Abandoned != 0 {
		t.Fatalf("abandoned %d on a healthy run", st.Abandoned)
	}

	// The sidecar exposes the cache counters.
	var snap MetricsSnapshot
	getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &snap)
	if snap.Cache == nil {
		t.Fatal("/metrics has no cache block with the cache enabled")
	}
	if snap.Cache.Hits != st.Hits || snap.Cache.Misses != st.Misses {
		t.Fatalf("/metrics cache %+v does not match CacheStats %+v", snap.Cache, st)
	}
}

// TestCachedServingSingleFlight runs K concurrent full-plan sessions over the
// same epoch and proves the single-flight property end to end: the pipeline
// executed each batch exactly once (misses == planLen), every other request
// was a hit or a single-flight wait, and all K clients got byte-identical
// streams. Each of those frames left the server as its own vectored write,
// which is what /metrics' writev counters (and perf's frames-per-call rung)
// report.
func TestCachedServingSingleFlight(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, FramesInUse))
	spec := loopbackSpec()
	srv := startCachedTestServer(t, spec, 64<<20, true)
	expected := localEpochFrames(t, spec, 0)
	planLen := len(expected)
	const K = 8

	frames := make([][][]byte, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(ClientConfig{Addr: srv.Addr(),
				Name: fmt.Sprintf("singleflight-%d", i)})
			defer c.Close()
			frames[i] = make([][]byte, planLen)
			_, errs[i] = c.Run(1, func(b *Batch, payload []byte) {
				frames[i][b.GlobalID] = append([]byte(nil), payload...)
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 0; i < K; i++ {
		for gid := 0; gid < planLen; gid++ {
			if !bytes.Equal(frames[i][gid], expected[gid]) {
				t.Fatalf("client %d batch %d differs from uncached local run", i, gid)
			}
		}
	}

	st, _ := srv.CacheStats()
	if want := int64(planLen); st.Misses != want {
		t.Fatalf("misses %d, want %d: K=%d concurrent sessions must preprocess each batch exactly once", st.Misses, want, K)
	}
	if total := st.Hits + st.SingleflightWait; total != int64((K-1)*planLen) {
		t.Fatalf("hits+waits = %d, want %d", total, (K-1)*planLen)
	}
	if st.Abandoned != 0 {
		t.Fatalf("abandoned %d on a healthy run", st.Abandoned)
	}

	// A frame is credited after its write returns, which may be after the
	// client has read it: wait for the last credits to land.
	want := int64(K * planLen)
	var snap MetricsSnapshot
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &snap)
		if snap.BatchesSent >= want || time.Now().After(deadline) {
			break
		}
	}
	if snap.BatchesSent != want || snap.WritevCalls != want || snap.WritevFrames != want {
		t.Fatalf("batches_sent %d, writev_calls %d, writev_frames %d: want all %d (one vectored write per frame)",
			snap.BatchesSent, snap.WritevCalls, snap.WritevFrames, want)
	}
}

// TestCachedServingTinyBudgetRecomputes: a cache too small for the epoch
// still serves byte-identical streams — entries are evicted and recomputed,
// trading CPU for memory, never correctness.
func TestCachedServingTinyBudgetRecomputes(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, FramesInUse))
	spec := loopbackSpec()
	srv := startCachedTestServer(t, spec, 1024, false) // ~1-2 frames resident
	expected := localEpochFrames(t, spec, 0)

	for pass := 0; pass < 2; pass++ {
		c := NewClient(ClientConfig{Addr: srv.Addr(), Name: fmt.Sprintf("tiny-%d", pass)})
		n := 0
		if _, err := c.Run(1, func(b *Batch, payload []byte) {
			n++
			if !bytes.Equal(payload, expected[b.GlobalID]) {
				t.Fatalf("pass %d batch %d differs under eviction pressure", pass, b.GlobalID)
			}
		}); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		c.Close()
		if n != len(expected) {
			t.Fatalf("pass %d saw %d frames, want %d", pass, n, len(expected))
		}
	}
	st, _ := srv.CacheStats()
	if st.Evicted == 0 {
		t.Fatal("tiny budget evicted nothing")
	}
	if st.BytesUsed > 1024 {
		t.Fatalf("resident bytes %d exceed budget 1024", st.BytesUsed)
	}
	// The second pass could not be all hits: entries were evicted and the
	// batches recomputed (misses beyond one epoch's plan).
	if st.Misses <= int64(len(expected)) {
		t.Fatalf("misses %d: eviction pressure should force recomputes beyond %d", st.Misses, len(expected))
	}
}
