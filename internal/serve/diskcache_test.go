package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"lotus/internal/pipeline"
	"lotus/internal/store"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// startDiskCachedServer brings up a server with the persistent tier rooted
// at dir (plus the given memory caches).
func startDiskCachedServer(t *testing.T, spec workloads.Spec, dir string,
	batchBytes, sampleBytes int64, mode pipeline.Mode, materializeDim int, withHTTP bool) *Server {
	t.Helper()
	srv := New(Config{Spec: spec, Mode: mode, MaterializeDim: materializeDim,
		Prefetch: 2, BatchCacheBytes: batchBytes, SampleCacheBytes: sampleBytes,
		DiskCacheDir: dir, Logf: t.Logf})
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

// TestMetricsCacheBlocksKeySet is the golden for the three cache blocks of
// /metrics: dashboards and the perf harness read these keys by name, so the
// exact set is pinned. The two memory tiers share one shape (cache.Stats);
// the disk tier keeps its own.
func TestMetricsCacheBlocksKeySet(t *testing.T) {
	spec := workloads.ICASpec(64, 7)
	srv := startDiskCachedServer(t, spec, t.TempDir(), 1<<20, 1<<20, pipeline.Simulated, 0, true)
	var snap map[string]json.RawMessage
	getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &snap)

	memory := []string{"abandoned", "bypassed", "bytes_budget", "bytes_used", "entries",
		"evicted", "hits", "misses", "singleflight_waits"}
	for block, want := range map[string][]string{
		"cache":        memory,
		"sample_cache": memory,
		"disk_cache": {"batch_hits", "batch_misses", "bytes_budget", "bytes_used",
			"corrupt_dropped", "entries", "sample_hits", "sample_misses",
			"segments", "segments_evicted", "spills", "spills_deduped", "spills_dropped"},
	} {
		var fields map[string]json.Number
		if err := json.Unmarshal(snap[block], &fields); err != nil {
			t.Fatalf("/metrics %q block: %v (raw %q)", block, err, snap[block])
		}
		got := make([]string, 0, len(fields))
		for k := range fields {
			got = append(got, k)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("/metrics %q keys\n got  %v\n want %v", block, got, want)
		}
	}
}

// TestDiskCacheCrossJobSharing is the two-process sharing acceptance test:
// job A computes two epochs and spills every frame; job B — a fresh Server
// over the same directory, the "second job" — must serve the same epochs
// byte-identical to ground truth with ZERO pipeline recomputation: every
// one of its claims is satisfied by the disk tier (disk batch misses == 0).
func TestDiskCacheCrossJobSharing(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := loopbackSpec()
	dir := t.TempDir()
	const epochs = 2

	expected := make([][][]byte, epochs)
	for e := 0; e < epochs; e++ {
		expected[e] = localEpochFrames(t, spec, e)
	}
	planLen := len(expected[0])

	run := func(srv *Server, name string) int {
		c := NewClient(ClientConfig{Addr: srv.Addr(), Name: name})
		defer c.Close()
		frames := 0
		if _, err := c.Run(epochs, func(b *Batch, payload []byte) {
			frames++
			if !bytes.Equal(payload, expected[b.Epoch][b.GlobalID]) {
				t.Fatalf("%s: epoch %d batch %d differs from ground truth", name, b.Epoch, b.GlobalID)
			}
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return frames
	}

	// Job A: cold directory, computes everything, spills write-through.
	jobA := startDiskCachedServer(t, spec, dir, 64<<20, 0, pipeline.Simulated, 0, false)
	if n := run(jobA, "job-a"); n != epochs*planLen {
		t.Fatalf("job A saw %d frames, want %d", n, epochs*planLen)
	}
	if err := jobA.FlushDiskCache(); err != nil {
		t.Fatal(err)
	}
	stA, ok := jobA.DiskCacheStats()
	if !ok {
		t.Fatal("disk stats unavailable on a disk-enabled server")
	}
	if stA.BatchMisses != int64(epochs*planLen) {
		t.Fatalf("job A should miss disk on every claim: %+v", stA)
	}
	if stA.Spills != int64(epochs*planLen) {
		t.Fatalf("job A should spill every frame: %+v", stA)
	}

	if err := jobA.Close(); err != nil {
		t.Fatal(err)
	}

	// Job B: a different process's server over the same directory. Every
	// claim must land on disk — cluster-wide recomputes == 0.
	jobB := startDiskCachedServer(t, spec, dir, 64<<20, 0, pipeline.Simulated, 0, false)
	if n := run(jobB, "job-b"); n != epochs*planLen {
		t.Fatalf("job B saw %d frames, want %d", n, epochs*planLen)
	}
	stB, _ := jobB.DiskCacheStats()
	if stB.BatchMisses != 0 {
		t.Fatalf("job B recomputed: disk misses %+v", stB)
	}
	if stB.BatchHits != int64(epochs*planLen) {
		t.Fatalf("job B should have hit disk %d times: %+v", epochs*planLen, stB)
	}
	if stB.CorruptDropped != 0 {
		t.Fatalf("clean handoff must drop nothing: %+v", stB)
	}
	if err := jobB.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskSampleTierCrossJobSharing exercises the sample-snapshot tier in
// real mode: job A materializes every prefix in epoch 0; job B, a fresh
// server on the same directory asked for a DIFFERENT epoch, restores all
// its prefixes from disk (sample misses == 0) and still serves bytes
// identical to an uncached server's.
func TestDiskSampleTierCrossJobSharing(t *testing.T) {
	spec := workloads.ICASpec(64, 7)
	spec.BatchSize = 16
	spec.NumWorkers = 2
	dir := t.TempDir()

	framesOf := func(srv *Server, epoch int, name string) map[int][]byte {
		c := NewClient(ClientConfig{Addr: srv.Addr(), Name: name})
		defer c.Close()
		if err := c.Connect(); err != nil {
			t.Fatal(err)
		}
		got := make(map[int][]byte)
		if err := fetchOnce(c, epoch, func(b *Batch, payload []byte) {
			got[b.GlobalID] = append([]byte(nil), payload...)
		}, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return got
	}

	// Ground truth for epoch 1: a plain server with no caches at all.
	plain := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: 48,
		Prefetch: 2, Logf: t.Logf})
	if err := plain.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	want := framesOf(plain, 1, "plain")
	plain.Close()

	// Job A warms the sample tier with epoch 0.
	jobA := startDiskCachedServer(t, spec, dir, 0, 256<<20, pipeline.RealData, 48, false)
	framesOf(jobA, 0, "job-a")
	stA, _ := jobA.DiskCacheStats()
	if stA.SampleMisses != int64(spec.NumSamples) {
		t.Fatalf("job A should miss disk once per sample: %+v", stA)
	}
	if err := jobA.Close(); err != nil {
		t.Fatal(err)
	}

	// Job B runs a different epoch: the batch tier could never help, but
	// every deterministic prefix comes back from disk.
	jobB := startDiskCachedServer(t, spec, dir, 0, 256<<20, pipeline.RealData, 48, false)
	got := framesOf(jobB, 1, "job-b")
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("frame counts diverge: %d vs %d", len(got), len(want))
	}
	for gid, w := range want {
		if !bytes.Equal(got[gid], w) {
			t.Fatalf("epoch 1 batch %d: disk-restored prefixes changed the bytes", gid)
		}
	}
	stB, _ := jobB.DiskCacheStats()
	if stB.SampleMisses != 0 {
		t.Fatalf("job B recomputed prefixes: %+v", stB)
	}
	if stB.SampleHits != int64(spec.NumSamples) {
		t.Fatalf("job B should restore all %d prefixes from disk: %+v", spec.NumSamples, stB)
	}
	memB, ok := jobB.SampleCacheStats()
	if !ok {
		t.Fatal("sample cache stats unavailable")
	}
	if memB.Misses != int64(spec.NumSamples) {
		t.Fatalf("job B memory-tier misses %d, want %d (each claimed once, then disk-filled)",
			memB.Misses, spec.NumSamples)
	}
	if err := jobB.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCacheBudgetEviction keeps the disk tier under a tiny budget and
// verifies the server still serves correct bytes when old segments are
// evicted mid-run — budget pressure degrades to recompute, never to error.
func TestDiskCacheBudgetEviction(t *testing.T) {
	spec := loopbackSpec()
	dir := t.TempDir()
	expected := make([][][]byte, 2)
	for e := 0; e < 2; e++ {
		expected[e] = localEpochFrames(t, spec, e)
	}
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		BatchCacheBytes: 64 << 20, DiskCacheDir: dir, DiskCacheBytes: 8 << 10, Logf: t.Logf})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "evict"})
	defer c.Close()
	if _, err := c.Run(2, func(b *Batch, payload []byte) {
		if !bytes.Equal(payload, expected[b.Epoch][b.GlobalID]) {
			t.Fatalf("epoch %d batch %d differs under disk eviction", b.Epoch, b.GlobalID)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.FlushDiskCache(); err != nil {
		t.Fatal(err)
	}
	st, _ := srv.DiskCacheStats()
	if st.SegmentsEvicted == 0 {
		t.Fatalf("tiny budget should have evicted segments: %+v", st)
	}
	if st.BytesUsed > (8<<10)+(4<<10)+int64(len(expected[0][0]))+64 {
		t.Fatalf("disk usage way over budget: %+v", st)
	}
}

// TestDiskCacheFingerprintIsolation: two servers with different specs over
// the same directory must not see each other's frames — the fingerprint in
// the key keeps the namespaces disjoint.
func TestDiskCacheFingerprintIsolation(t *testing.T) {
	dir := t.TempDir()
	specA := loopbackSpec()
	expectedA := localEpochFrames(t, specA, 0)

	a := startDiskCachedServer(t, specA, dir, 64<<20, 0, pipeline.Simulated, 0, false)
	ca := NewClient(ClientConfig{Addr: a.Addr(), Name: "fp-a"})
	if _, err := ca.Run(1, nil); err != nil {
		t.Fatal(err)
	}
	ca.Close()
	a.Close()

	// Same workload, different seed: every frame changes, so job B must
	// miss the disk everywhere and serve its own (different) ground truth.
	specB := loopbackSpec()
	specB.Seed = specA.Seed + 1
	expectedB := localEpochFrames(t, specB, 0)
	b := startDiskCachedServer(t, specB, dir, 64<<20, 0, pipeline.Simulated, 0, false)
	cb := NewClient(ClientConfig{Addr: b.Addr(), Name: "fp-b"})
	if _, err := cb.Run(1, func(bb *Batch, payload []byte) {
		if !bytes.Equal(payload, expectedB[bb.GlobalID]) {
			t.Fatalf("batch %d: wrong bytes under a shared directory", bb.GlobalID)
		}
		if bytes.Equal(payload, expectedA[bb.GlobalID]) && !bytes.Equal(expectedA[bb.GlobalID], expectedB[bb.GlobalID]) {
			t.Fatalf("batch %d: served the OTHER spec's frame", bb.GlobalID)
		}
	}); err != nil {
		t.Fatal(err)
	}
	cb.Close()
	st, _ := b.DiskCacheStats()
	if st.BatchHits != 0 {
		t.Fatalf("different fingerprint must never hit: %+v", st)
	}
	b.Close()
}

// encodeBatchV2 is the protocol version 2 Batch layout, kept here as the
// stale bytes an old disk tier holds: the tensor follows its byte count
// directly, unpadded, floats big-endian.
func encodeBatchV2(m *Batch) []byte {
	b := appendBatchHeader(nil, &Batch{Epoch: m.Epoch, GlobalID: m.GlobalID, Indices: m.Indices,
		Labels: m.Labels, Dtype: m.Dtype, Shape: m.Shape})
	b[len(b)-1] = 1
	b = appendU32(b, uint32(4*len(m.F32)))
	for _, v := range m.F32 {
		b = appendU32(b, math.Float32bits(v))
	}
	return b
}

// TestDiskCacheOldLayoutIsAMiss is the stale-bytes hazard closed: the disk
// tier serves stored frames verbatim, so a directory a version 2 or version
// 3 server filled — same spec, same keys but for the fingerprint's layout
// term — must read as empty to this build. Every batch is a disk miss, is
// recomputed and re-spilled in the current layout, and a restart then runs
// warm; at no point does a client see an old frame.
func TestDiskCacheOldLayoutIsAMiss(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := workloads.ICSpec(96, 7)
	spec.BatchSize = 32
	spec.NumWorkers = 2
	const dim = 48
	dir := t.TempDir()
	expected := localEpochBatches(t, spec, 0, pipeline.RealData, dim)

	// What old servers left behind: version 2 frames under SpecFingerprint
	// as it was (no layout term), and version 3 frames — the float32 tensor
	// the client now makes itself — under layout 3.
	oldFP := func(layout string) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d|%d|%d|%t|%d|%g|%t|%d|%d"+layout,
			spec.Kind, spec.NumSamples, spec.BatchSize, spec.Seed, spec.Shuffle,
			spec.Arch, spec.WorkScale, spec.OfflineDecode, pipeline.RealData, dim)
		return h.Sum64()
	}
	v2FP, v3FP := oldFP(""), oldFP("|layout3")
	if v2FP == SpecFingerprint(spec, pipeline.RealData, dim) || v3FP == SpecFingerprint(spec, pipeline.RealData, dim) {
		t.Fatal("SpecFingerprint does not depend on the frame layout")
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var stale [][]byte
	for gid, b := range expected {
		v2, v3 := encodeBatchV2(b), AppendBatch(nil, b)
		if bytes.Equal(v2, v3) {
			t.Fatal("the version 2 encoding of a float batch equals the version 3 one: the test proves nothing")
		}
		stale = append(stale, v2, v3)
		if err := st.Put(diskBatchKey(BatchKey{Fingerprint: v2FP, GlobalID: gid}), v2); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(diskBatchKey(BatchKey{Fingerprint: v3FP, GlobalID: gid}), v3); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	run := func(name string) store.Stats {
		srv := startDiskCachedServer(t, spec, dir, 64<<20, 0, pipeline.RealData, dim, false)
		c := NewClient(ClientConfig{Addr: srv.Addr(), Name: name})
		defer c.Close()
		frames := 0
		if _, err := c.Run(1, func(b *Batch, payload []byte) {
			frames++
			for _, old := range stale {
				if bytes.Equal(payload, old) {
					t.Fatalf("%s: batch %d was served in an old layout", name, b.GlobalID)
				}
			}
			if !sameBatch(b, expected[b.GlobalID]) {
				t.Fatalf("%s: batch %d differs from the local run", name, b.GlobalID)
			}
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if frames != len(expected) {
			t.Fatalf("%s: %d frames, want %d", name, frames, len(expected))
		}
		if err := srv.FlushDiskCache(); err != nil {
			t.Fatal(err)
		}
		stats, _ := srv.DiskCacheStats()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return stats
	}
	n := int64(len(expected))
	if s := run("over-old-dir"); s.BatchHits != 0 || s.BatchMisses != n || s.Spills != n {
		t.Fatalf("first run over a version 2 and 3 directory: %+v; want 0 hits, %d misses, %d spills", s, n, n)
	}
	if s := run("reopened"); s.BatchHits != n || s.BatchMisses != 0 {
		t.Fatalf("reopened after the refill: %+v; want %d hits, 0 misses", s, n)
	}
}
