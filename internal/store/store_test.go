package store

import (
	"bytes"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lotus/internal/faultinject"
)

func batchKey(i int) Key {
	return Key{Kind: KindBatch, FP: 0xABCD, A: 0, B: uint64(i)}
}

func sampleKey(i int) Key {
	return Key{Kind: KindSample, FP: 0x1234, A: uint64(i)}
}

// payloadFor builds a deterministic, content-distinct payload per key.
func payloadFor(k Key, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(k.Kind)*31 + int(k.FP) + int(k.A)*7 + int(k.B)*13 + i)
	}
	return b
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()

	want := map[Key][]byte{}
	for i := 0; i < 10; i++ {
		for _, k := range []Key{batchKey(i), sampleKey(i)} {
			p := payloadFor(k, 100+i)
			want[k] = p
			if err := s.Put(k, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, p := range want {
		got, ok := s.Get(k, nil)
		if !ok {
			t.Fatalf("miss for %+v", k)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload mismatch for %+v", k)
		}
	}
	st := s.Stats()
	if st.Spills != 20 || st.Entries != 20 {
		t.Fatalf("stats: %+v", st)
	}
	if st.BatchHits != 10 || st.SampleHits != 10 {
		t.Fatalf("hit stats: %+v", st)
	}
	if _, ok := s.Get(batchKey(99), nil); ok {
		t.Fatal("unexpected hit")
	}
	if s.Stats().BatchMisses != 1 {
		t.Fatalf("miss stats: %+v", s.Stats())
	}
}

func TestGetWithAllocCallback(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	k := batchKey(0)
	p := payloadFor(k, 64)
	if err := s.Put(k, p); err != nil {
		t.Fatal(err)
	}
	backing := make([]byte, 0, 128)
	got, ok := s.Get(k, func(n int) []byte { return backing[:0][:n] })
	if !ok || !bytes.Equal(got, p) {
		t.Fatal("alloc-callback get failed")
	}
	if &got[0] != &backing[:1][0] {
		t.Fatal("Get did not use the caller-provided buffer")
	}
}

func TestPutDedup(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	k := batchKey(1)
	p := payloadFor(k, 32)
	for i := 0; i < 3; i++ {
		if err := s.Put(k, p); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Spills != 1 || st.SpillsDeduped != 2 {
		t.Fatalf("dedup stats: %+v", st)
	}
}

func TestPutAsyncAndFlush(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	k := sampleKey(7)
	p := payloadFor(k, 48)
	s.PutAsync(k, p)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k, nil)
	if !ok || !bytes.Equal(got, p) {
		t.Fatal("PutAsync record not readable after Flush")
	}
}

// Producers faster than the writer wait at the byte bound instead of growing
// the backlog or losing records: the queued bytes never exceed queueBytes,
// every record lands, and a payload larger than the bound still gets through.
func TestPutAsyncBacklogBoundedInBytes(t *testing.T) {
	const bound, size, perProducer, producers = 4 << 10, 1 << 10, 100, 4
	s := mustOpen(t, t.TempDir(), Options{queueBytes: bound, segmentBytes: 8 << 10})
	defer s.Close()

	stop, watched := make(chan struct{}), make(chan int64)
	go func() {
		var high int64
		for {
			s.mu.Lock()
			high = max(high, s.queued)
			s.mu.Unlock()
			select {
			case <-stop:
				watched <- high
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				k := batchKey(p*perProducer + i)
				s.PutAsync(k, payloadFor(k, size))
			}
		}()
	}
	wg.Wait()
	close(stop)
	if high := <-watched; high > bound {
		t.Fatalf("backlog reached %d bytes, bound %d", high, bound)
	}
	big := sampleKey(1)
	s.PutAsync(big, payloadFor(big, 3*bound))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	left := s.queued
	s.mu.Unlock()
	if st := s.Stats(); left != 0 || st.Spills != producers*perProducer+1 || st.SpillsDropped != 0 {
		t.Fatalf("after flush: %d bytes still counted queued, stats %+v", left, st)
	}
	for i := 0; i < producers*perProducer; i++ {
		k := batchKey(i)
		if got, ok := s.Get(k, nil); !ok || !bytes.Equal(got, payloadFor(k, size)) {
			t.Fatalf("record %d lost or wrong", i)
		}
	}
	if got, ok := s.Get(big, nil); !ok || !bytes.Equal(got, payloadFor(big, 3*bound)) {
		t.Fatal("oversize record lost or wrong")
	}
}

// A writer stuck on a hung disk must not stop the producers behind it: with
// the backlog full — its bytes, or its slots — PutAsync gives up after
// spillWait and counts the spill dropped, and Close releases the writer and
// lands what was queued.
func TestPutAsyncStalledWriterDropsAfterBound(t *testing.T) {
	for _, tc := range []struct {
		name       string
		queueBytes int64
		size, fill int // payload bytes; spills queued (the first stalls the writer) before one must drop
	}{
		{"bytes", 4 << 10, 1 << 10, 4},
		{"slots", 0, 1, queueSlots + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultinject.New(faultinject.Spec{DiskStall: 1})
			s := mustOpen(t, t.TempDir(), Options{queueBytes: tc.queueBytes, Faults: inj})
			defer s.Close()
			for i := 0; i <= tc.fill; i++ {
				k := batchKey(i)
				start := time.Now()
				s.PutAsync(k, payloadFor(k, tc.size))
				if waited := time.Since(start); waited > 2*spillWait {
					t.Fatalf("PutAsync %d behind a stalled writer returned after %v, bound %v", i, waited, spillWait)
				}
			}
			if st := s.Stats(); st.SpillsDropped != 1 || st.Spills != 0 {
				t.Fatalf("behind a stalled writer: %+v, want 1 dropped and nothing appended", st)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Spills != int64(tc.fill) || inj.Counts().DiskFaults != 1 {
				t.Fatalf("after Close: %+v (stalls %d), want the %d queued spills appended",
					st, inj.Counts().DiskFaults, tc.fill)
			}
		})
	}
}

// TestReopenWarmFromManifest: a store reopened after Close indexes every
// record from the segments' headers, and counts nothing as dropped.
func TestReopenWarmFromManifest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	want := map[Key][]byte{}
	for i := 0; i < 8; i++ {
		k := batchKey(i)
		p := payloadFor(k, 200)
		want[k] = p
		if err := s.Put(k, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	st := s2.Stats()
	if st.Entries != len(want) || st.CorruptDropped != 0 {
		t.Fatalf("expected %d entries and nothing dropped, got %+v", len(want), st)
	}
	for k, p := range want {
		got, ok := s2.Get(k, nil)
		if !ok || !bytes.Equal(got, p) {
			t.Fatalf("warm reopen lost %+v", k)
		}
	}
}

// TestReopenRebuildsWithoutManifest: the state a SIGKILL leaves — the first
// store never Flushed or Closed — reopens with every appended record, by the
// same scan a clean Close gets.
func TestReopenRebuildsWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	want := map[Key][]byte{}
	for i := 0; i < 8; i++ {
		k := sampleKey(i)
		p := payloadFor(k, 150)
		want[k] = p
		if err := s.Put(k, p); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.Entries != len(want) || st.CorruptDropped != 0 {
		t.Fatalf("reopen without Close: %+v", st)
	}
	for k, p := range want {
		got, ok := s2.Get(k, nil)
		if !ok || !bytes.Equal(got, p) {
			t.Fatalf("reopen without Close lost %+v", k)
		}
	}
}

// TestRecoverAppendsBeyondManifest: records appended after the last Flush —
// queued by PutAsync, never Closed — are recovered beside the flushed ones.
func TestRecoverAppendsBeyondManifest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	k0, k1 := batchKey(0), batchKey(1)
	p0, p1 := payloadFor(k0, 100), payloadFor(k1, 100)
	s.PutAsync(k0, p0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.PutAsync(k1, p1)
	if err := s.Put(batchKey(2), payloadFor(batchKey(2), 100)); err != nil { // k1 is appended first
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	for _, kv := range []struct {
		k Key
		p []byte
	}{{k0, p0}, {k1, p1}} {
		got, ok := s2.Get(kv.k, nil)
		if !ok || !bytes.Equal(got, kv.p) {
			t.Fatalf("record appended after the last Flush lost: %+v", kv.k)
		}
	}
}

func TestSegmentRollAndEviction(t *testing.T) {
	dir := t.TempDir()
	// ~1KiB records, 4KiB segments, 12KiB budget: forces rolls and evictions.
	s := mustOpen(t, dir, Options{segmentBytes: 4 << 10, Budget: 12 << 10})
	defer s.Close()
	n := 40
	for i := 0; i < n; i++ {
		k := batchKey(i)
		if err := s.Put(k, payloadFor(k, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SegmentsEvicted == 0 {
		t.Fatalf("expected evictions: %+v", st)
	}
	if st.BytesUsed > st.BytesBudget+(4<<10)+recordHeaderSize+1024 {
		t.Fatalf("bytes way over budget: %+v", st)
	}
	// Recent entries survive (LRU evicts oldest segments first).
	k := batchKey(n - 1)
	got, ok := s.Get(k, nil)
	if !ok || !bytes.Equal(got, payloadFor(k, 1024)) {
		t.Fatal("most recent entry evicted")
	}
	// Evicted entries are clean misses.
	if _, ok := s.Get(batchKey(0), nil); ok {
		t.Fatal("oldest entry should have been evicted")
	}
}

func TestCorruptAppendDetectedOnRead(t *testing.T) {
	inj := faultinject.New(faultinject.Spec{CorruptDiskAppend: 2})
	s := mustOpen(t, t.TempDir(), Options{Faults: inj})
	defer s.Close()
	for i := 0; i < 4; i++ {
		k := batchKey(i)
		if err := s.Put(k, payloadFor(k, 128)); err != nil {
			t.Fatal(err)
		}
	}
	hits := 0
	for i := 0; i < 4; i++ {
		k := batchKey(i)
		got, ok := s.Get(k, nil)
		if ok {
			if !bytes.Equal(got, payloadFor(k, 128)) {
				t.Fatalf("served corrupt bytes for %+v", k)
			}
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("expected exactly one corrupt record, got %d hits", hits)
	}
	st := s.Stats()
	if st.CorruptDropped != 1 {
		t.Fatalf("corrupt stats: %+v", st)
	}
	if got := inj.Counts().DiskFaults; got != 1 {
		t.Fatalf("expected 1 injected disk fault, got %d", got)
	}
	// The dropped record stays dropped: a second Get is a plain miss.
	misses := s.Stats().BatchMisses
	for i := 0; i < 4; i++ {
		s.Get(batchKey(i), nil)
	}
	if s.Stats().BatchMisses != misses+1 {
		t.Fatalf("re-read stats: %+v", s.Stats())
	}
}

// TestTornManifestForcesRebuild: a record torn mid-payload, as a crash
// mid-append leaves it, is not indexed — its header names more bytes than the
// segment holds — and every record before it is.
func TestTornManifestForcesRebuild(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	want := map[Key][]byte{}
	for i := 0; i < 6; i++ {
		k := sampleKey(i)
		p := payloadFor(k, 90)
		want[k] = p
		if err := s.Put(k, p); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path, off, err := LastRecord(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, off+recordHeaderSize+45); err != nil {
		t.Fatal(err)
	}
	torn := sampleKey(5)

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.Entries != len(want)-1 || st.CorruptDropped != 1 {
		t.Fatalf("a torn last record: %+v", st)
	}
	for k, p := range want {
		got, ok := s2.Get(k, nil)
		if k == torn && ok {
			t.Fatal("torn record served")
		}
		if k != torn && (!ok || !bytes.Equal(got, p)) {
			t.Fatalf("a record before the torn one lost: %+v", k)
		}
	}
}

// TestRecordHeaderGolden pins the version 3 record header byte for byte, so
// the format cannot drift with the CRC32C implementation: CI reruns it with
// GODEBUG=cpu.sse42=off, on hash/crc32's software path.
func TestRecordHeaderGolden(t *testing.T) {
	k := Key{Kind: KindBatch, FP: 0x0123456789ABCDEF, A: 7, B: 42}
	p := []byte("lotus record v3")
	h := encodeRecordHeader(k, uint32(len(p)), crc32c(p))
	const want = "4c52433301" + "0123456789abcdef" + "0000000000000007" + "000000000000002a" +
		"0000000f" + "87c5b32a" + "f809e59b"
	if got := hex.EncodeToString(h[:]); got != want {
		t.Fatalf("record header\n got  %s\n want %s", got, want)
	}
}

func TestDropRemovesEntry(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	k := sampleKey(3)
	if err := s.Put(k, payloadFor(k, 40)); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(k) {
		t.Fatal("Contains miss")
	}
	s.Drop(k)
	if s.Contains(k) {
		t.Fatal("Drop did not remove entry")
	}
	if _, ok := s.Get(k, nil); ok {
		t.Fatal("dropped entry served")
	}
}

func TestCloseIdempotentAndRejectsWrites(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.PutAsync(batchKey(0), []byte("x")) // must not panic
	if err := s.Put(batchKey(0), []byte("x")); err == nil {
		t.Fatal("Put after Close should error")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{segmentBytes: 8 << 10})
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			k := batchKey(i)
			s.PutAsync(k, payloadFor(k, 256))
		}
	}()
	for i := 0; i < 200; i++ {
		k := sampleKey(i)
		if err := s.Put(k, payloadFor(k, 64)); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(k, nil); !ok || !bytes.Equal(got, payloadFor(k, 64)) {
			t.Fatalf("lost own write %d", i)
		}
		s.Get(batchKey(i), nil) // may hit or miss; must never be wrong
	}
	<-done
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestStableAcrossManyReopens(t *testing.T) {
	dir := t.TempDir()
	want := map[Key][]byte{}
	for round := 0; round < 5; round++ {
		s := mustOpen(t, dir, Options{segmentBytes: 2 << 10})
		for k, p := range want {
			got, ok := s.Get(k, nil)
			if !ok || !bytes.Equal(got, p) {
				t.Fatalf("round %d lost %+v", round, k)
			}
		}
		k := batchKey(round)
		p := payloadFor(k, 300+round)
		want[k] = p
		if err := s.Put(k, p); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs int
	for _, de := range names {
		if strings.HasPrefix(de.Name(), "seg-") {
			segs++
		}
	}
	if segs != 5 {
		t.Fatalf("each reopen should start one fresh segment, got %d files", segs)
	}
}

// TestConcurrentGetsOverlap: a Get holds the store lock only for the index
// lookup and the outcome, so a second Get — and Stats, and a spill — complete
// while the first is still in its read-and-verify section. The first Get's
// alloc callback is the gate: it returns only once the others are done, which
// deadlocks (and times this test out) if alloc runs under the lock.
func TestConcurrentGetsOverlap(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	k1, k2 := batchKey(1), batchKey(2)
	p1, p2 := payloadFor(k1, 4096), payloadFor(k2, 4096)
	for k, p := range map[Key][]byte{k1: p1, k2: p2} {
		if err := s.Put(k, p); err != nil {
			t.Fatal(err)
		}
	}

	entered, others := make(chan struct{}), make(chan struct{})
	type result struct {
		buf []byte
		sum uint32
		ok  bool
	}
	first := make(chan result, 1)
	go func() {
		var r result
		r.buf, r.sum, r.ok = s.GetDigest(k1, func(n int) []byte {
			close(entered)
			<-others
			return make([]byte, n)
		})
		first <- r
	}()
	<-entered
	got2, ok := s.Get(k2, nil)
	if !ok || !bytes.Equal(got2, p2) {
		t.Fatal("second Get failed while the first was in flight")
	}
	if err := s.Put(batchKey(3), payloadFor(batchKey(3), 64)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BatchHits != 1 || st.Spills != 3 {
		t.Fatalf("stats while the first Get is in flight: %+v", st)
	}
	close(others)
	r := <-first
	if !r.ok || !bytes.Equal(r.buf, p1) {
		t.Fatal("first Get failed")
	}
	if r.sum != crc32c(p1) {
		t.Fatalf("GetDigest returned %#x, want the payload's CRC32C %#x", r.sum, crc32c(p1))
	}
	if st := s.Stats(); st.BatchHits != 2 || st.CorruptDropped != 0 {
		t.Fatalf("final stats: %+v", st)
	}
}

// TestGetLosingToEvictionIsAMiss: a Get reads outside the store lock, so its
// segment can be evicted between the lookup and the read. That is a miss —
// the record left the index with its segment — not a corrupt record.
func TestGetLosingToEvictionIsAMiss(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{segmentBytes: 1 << 10, Budget: 3 << 10})
	defer s.Close()
	k := batchKey(0)
	if err := s.Put(k, payloadFor(k, 2<<10)); err != nil { // fills and seals segment 0
		t.Fatal(err)
	}
	_, ok := s.Get(k, func(n int) []byte {
		// A second sealed segment takes the store over budget: segment 0,
		// the older one, is evicted.
		k1 := batchKey(1)
		if err := s.Put(k1, payloadFor(k1, 2<<10)); err != nil {
			t.Fatal(err)
		}
		return make([]byte, n)
	})
	if ok {
		t.Fatal("Get served a record whose segment was evicted before the read")
	}
	st := s.Stats()
	if st.SegmentsEvicted != 1 || st.CorruptDropped != 0 || st.BatchMisses != 1 || st.BatchHits != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSegmentBytesFitBudget: with no explicit segmentBytes, a budget smaller
// than four default segments gets segments of a quarter of it — eviction
// works in whole sealed segments — and every other budget keeps 4 MiB.
func TestSegmentBytesFitBudget(t *testing.T) {
	for _, c := range []struct{ budget, want int64 }{
		{0, defaultSegmentBytes},
		{8 << 10, 2 << 10},
		{3, 1},
		{16 << 20, defaultSegmentBytes},
		{4 << 30, defaultSegmentBytes},
	} {
		s := mustOpen(t, t.TempDir(), Options{Budget: c.budget})
		if s.opts.segmentBytes != c.want {
			t.Errorf("budget %d: segment %d bytes, want %d", c.budget, s.opts.segmentBytes, c.want)
		}
		s.Close()
	}
	s := mustOpen(t, t.TempDir(), Options{Budget: 8 << 10, segmentBytes: 4 << 10})
	defer s.Close()
	if s.opts.segmentBytes != 4<<10 {
		t.Fatalf("explicit segmentBytes overridden to %d", s.opts.segmentBytes)
	}
}
