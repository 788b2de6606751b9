package store

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// These are the manifest crash-safety property tests: whatever we do to the
// manifest bytes — truncate at any offset, flip any byte, leave a
// half-renamed tmp behind — Open must recover to a consistent index holding
// only checksum-clean records, and Get must return either the exact
// original bytes or a miss. Never a panic, never stale bytes.

// buildStore populates dir with a mix of batch and sample records across
// several segments and returns the ground-truth payload map.
func buildStore(t *testing.T, dir string) map[Key][]byte {
	t.Helper()
	s := mustOpen(t, dir, Options{SegmentBytes: 2 << 10})
	want := map[Key][]byte{}
	for i := 0; i < 12; i++ {
		for _, k := range []Key{batchKey(i), sampleKey(i)} {
			p := payloadFor(k, 150+17*i)
			want[k] = p
			if err := s.Put(k, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// copyDir clones the store directory so each property-test iteration
// mutates a pristine copy.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRecovery opens dir and asserts the core invariant: every Get is
// either the exact original payload or a clean miss. Returns the hit count.
func checkRecovery(t *testing.T, dir string, want map[Key][]byte) int {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open must recover, got error: %v", err)
	}
	defer s.Close()
	hits := 0
	for k, p := range want {
		got, ok := s.Get(k, nil)
		if !ok {
			continue
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("STALE BYTES served for %+v", k)
		}
		hits++
	}
	return hits
}

func TestManifestTruncationAlwaysRecovers(t *testing.T) {
	base := t.TempDir()
	want := buildStore(t, base)
	man, err := os.ReadFile(filepath.Join(base, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point would be O(len^2) file copies; step through a
	// spread of cut points including the structural boundaries.
	cuts := []int{0, 1, 4, 8, 11, 12, len(man) / 4, len(man) / 2, len(man) - 9, len(man) - 8, len(man) - 1}
	for step := 13; step < len(man); step += 13 {
		cuts = append(cuts, step)
	}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(man) {
			continue
		}
		dir := t.TempDir()
		copyDir(t, base, dir)
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), man[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// A truncated manifest fails its self-checksum, so recovery must
		// fall back to a full segment scan and find everything.
		if hits := checkRecovery(t, dir, want); hits != len(want) {
			t.Fatalf("cut=%d: rebuild recovered %d/%d records", cut, hits, len(want))
		}
	}
}

func TestManifestBitFlipsAlwaysRecover(t *testing.T) {
	base := t.TempDir()
	want := buildStore(t, base)
	man, err := os.ReadFile(filepath.Join(base, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(man); pos += 7 {
		dir := t.TempDir()
		copyDir(t, base, dir)
		flipped := append([]byte(nil), man...)
		flipped[pos] ^= 0x20
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		// Any single bit flip breaks the self-checksum → full rebuild →
		// every record recovered from the (intact) segments.
		if hits := checkRecovery(t, dir, want); hits != len(want) {
			t.Fatalf("flip@%d: recovered %d/%d records", pos, hits, len(want))
		}
	}
}

func TestHalfRenamedManifestUsesDurableCopy(t *testing.T) {
	base := t.TempDir()
	want := buildStore(t, base)
	dir := t.TempDir()
	copyDir(t, base, dir)
	// Crash mid-manifest-write: a garbage MANIFEST.tmp sits next to the
	// last durable MANIFEST. The tmp must be ignored and discarded.
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.tmp"), []byte("garbage half-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if hits := checkRecovery(t, dir, want); hits != len(want) {
		t.Fatalf("recovered %d/%d records", hits, len(want))
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.tmp")); !os.IsNotExist(err) {
		t.Fatal("leftover MANIFEST.tmp not cleaned up")
	}
}

func TestSegmentCorruptionDropsOnlyDamagedRecords(t *testing.T) {
	base := t.TempDir()
	want := buildStore(t, base)
	segs, _ := filepath.Glob(filepath.Join(base, "seg-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}

	// With the manifest intact: a flipped payload byte is caught by Get's
	// read-time checksum; the rest of the store is untouched.
	t.Run("manifest-intact", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, base, dir)
		corruptOneByte(t, filepath.Join(dir, filepath.Base(segs[0])))
		hits := checkRecovery(t, dir, want)
		if hits == len(want) {
			t.Fatal("corruption went undetected")
		}
		if hits < len(want)-4 {
			t.Fatalf("one flipped byte dropped too much: %d/%d", hits, len(want))
		}
	})

	// Without the manifest: the rebuild scan itself must skip the damaged
	// record and keep everything behind it in the same segment.
	t.Run("rebuild", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, base, dir)
		corruptOneByte(t, filepath.Join(dir, filepath.Base(segs[0])))
		if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
			t.Fatal(err)
		}
		hits := checkRecovery(t, dir, want)
		if hits == len(want) {
			t.Fatal("corruption went undetected")
		}
		if hits < len(want)-4 {
			t.Fatalf("rebuild dropped too much: %d/%d", hits, len(want))
		}
	})
}

// corruptOneByte flips a byte inside the first record's payload region.
func corruptOneByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) <= recordHeaderSize+10 {
		t.Fatalf("segment too short to corrupt: %d bytes", len(b))
	}
	b[recordHeaderSize+10] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedSegmentAbandonsTailOnly(t *testing.T) {
	base := t.TempDir()
	want := buildStore(t, base)
	dir := t.TempDir()
	copyDir(t, base, dir)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	// Chop the last segment mid-record and drop the manifest: the rebuild
	// must keep every complete record and abandon only the torn tail.
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-20); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	hits := checkRecovery(t, dir, want)
	if hits == len(want) {
		t.Fatal("truncation went undetected")
	}
	if hits < len(want)-2 {
		t.Fatalf("segment truncation dropped too much: %d/%d", hits, len(want))
	}
}

// FuzzDecodeManifest throws arbitrary bytes at the manifest decoder: it
// must never panic, and whatever it accepts must be structurally bounded.
func FuzzDecodeManifest(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		k := batchKey(i)
		s.Put(k, payloadFor(k, 64))
	}
	s.Close()
	valid, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("LMAN"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		for _, e := range m.entries {
			if e.key.Kind != KindBatch && e.key.Kind != KindSample {
				t.Fatal("decoder accepted invalid kind")
			}
			if e.loc.len > maxPayload || e.loc.off < 0 {
				t.Fatal("decoder accepted unbounded location")
			}
		}
	})
}

// FuzzOpenWithArbitraryManifest plants fuzzer-chosen bytes as the MANIFEST
// over a real segment directory: Open must always succeed without panicking
// and must never serve bytes that differ from the originals.
func FuzzOpenWithArbitraryManifest(f *testing.F) {
	base := f.TempDir()
	s, err := Open(base, Options{SegmentBytes: 1 << 10})
	if err != nil {
		f.Fatal(err)
	}
	want := map[Key][]byte{}
	for i := 0; i < 6; i++ {
		k := sampleKey(i)
		p := payloadFor(k, 120)
		want[k] = p
		s.Put(k, p)
	}
	s.Close()
	valid, err := os.ReadFile(filepath.Join(base, "MANIFEST"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("LMANgarbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		entries, err := os.ReadDir(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range entries {
			b, err := os.ReadFile(filepath.Join(base, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, de.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open must recover from arbitrary manifests: %v", err)
		}
		defer st.Close()
		for k, p := range want {
			if got, ok := st.Get(k, nil); ok && !bytes.Equal(got, p) {
				t.Fatalf("stale bytes served for %+v", k)
			}
		}
	})
}

// writeV1Directory lays down a format version 1 store by hand — "LREC"
// records and a version 1 MANIFEST, both summed with FNV-1a 64, every sum
// valid — holding payloadFor(k, 200) for each key in one sealed segment.
func writeV1Directory(t *testing.T, dir string, keys []Key) {
	t.Helper()
	fnv64 := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	be := binary.BigEndian
	appendKey := func(b []byte, k Key) []byte {
		b = append(b, byte(k.Kind))
		b = be.AppendUint64(b, k.FP)
		b = be.AppendUint64(b, k.A)
		return be.AppendUint64(b, k.B)
	}
	var seg, entries []byte
	for _, k := range keys {
		p := payloadFor(k, 200)
		off := len(seg)
		seg = be.AppendUint32(seg, 0x4C524543) // "LREC"
		seg = appendKey(seg, k)
		seg = be.AppendUint32(seg, uint32(len(p)))
		seg = be.AppendUint64(seg, fnv64(p))
		seg = append(seg, p...)
		entries = appendKey(entries, k)
		entries = be.AppendUint32(entries, 0) // segment id
		entries = be.AppendUint64(entries, uint64(off))
		entries = be.AppendUint32(entries, uint32(len(p)))
		entries = be.AppendUint64(entries, fnv64(p))
	}
	man := be.AppendUint32(nil, manifestMagic)
	man = be.AppendUint32(man, 1) // version
	man = be.AppendUint32(man, 1) // one segment
	man = be.AppendUint32(man, 0)
	man = be.AppendUint64(man, uint64(len(seg)))
	man = be.AppendUint32(man, uint32(len(keys)))
	man = append(man, entries...)
	man = be.AppendUint64(man, fnv64(man))
	for name, b := range map[string][]byte{segmentName(0): seg, manifestName: man} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenV1DirectoryServesNothing: a directory written at manifest version 1
// opens without error as an empty store — its manifest is refused on the
// version, the rebuild that follows refuses its records on the magic, so not
// one FNV-summed record is trusted as a CRC-summed one — and then refills and
// reopens warm like any other.
func TestOpenV1DirectoryServesNothing(t *testing.T) {
	dir := t.TempDir()
	keys := []Key{batchKey(0), batchKey(1), sampleKey(0), sampleKey(1)}
	writeV1Directory(t, dir, keys)

	s := mustOpen(t, dir, Options{})
	for _, k := range keys {
		if _, ok := s.Get(k, nil); ok {
			t.Fatalf("served version 1 record %+v", k)
		}
	}
	st := s.Stats()
	if st.Rebuilds != 1 || st.Entries != 0 || st.BatchHits+st.SampleHits != 0 || st.CorruptDropped != 0 {
		t.Fatalf("after opening a version 1 directory: %+v", st)
	}
	for _, k := range keys {
		if err := s.Put(k, payloadFor(k, 300)); err != nil {
			t.Fatalf("refill %+v: %v", k, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	for _, k := range keys {
		if got, ok := s.Get(k, nil); !ok || !bytes.Equal(got, payloadFor(k, 300)) {
			t.Fatalf("refilled record %+v not served after reopen", k)
		}
	}
	if st := s.Stats(); st.Rebuilds != 0 || st.Entries != len(keys) {
		t.Fatalf("reopen after refill: %+v", st)
	}
}
