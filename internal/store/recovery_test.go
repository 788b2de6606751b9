package store

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// These are the crash-safety property tests of the one recovery path: Open
// indexes the segments' record headers, and whatever was done to the bytes —
// a cut at any offset, a flipped bit in any header or payload, stray files an
// older build left — every Get returns either the exact bytes Put under its
// key or a miss. Never a panic, never stale bytes.

// buildStore populates dir with a mix of batch and sample records across
// several segments and returns the ground-truth payload map.
func buildStore(t *testing.T, dir string) map[Key][]byte {
	t.Helper()
	s := mustOpen(t, dir, Options{segmentBytes: 2 << 10})
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

// record is one record of a segment file, as its header places it.
type record struct {
	seg string // segment file name
	off int64  // header offset
	end int64  // offset past the payload
	key Key
}

// segmentRecords lists the records Open would index in the segments of dir,
// oldest segment first.
func segmentRecords(t *testing.T, dir string) []record {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	var out []record
	for _, path := range segs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := walkRecords(bytes.NewReader(b), int64(len(b)), func(off int64, key Key, plen, _ uint32) {
			out = append(out, record{filepath.Base(path), off, off + recordHeaderSize + int64(plen), key})
		}); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return out
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

// checkRecovery opens dir and asserts the core invariant: every Get of a key
// in want, or in probe, is either the exact original payload or a clean
// miss (a probe key not in want must miss). Returns the hits among want.
func checkRecovery(t *testing.T, dir string, want map[Key][]byte, probe ...Key) int {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open must recover, got error: %v", err)
	}
	defer s.Close()
	for _, k := range probe {
		if got, ok := s.Get(k, nil); ok && !bytes.Equal(got, want[k]) {
			t.Fatalf("STALE BYTES served for %+v", k)
		}
	}
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

// rewrite applies mutate to the bytes of the file at path.
func rewrite(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestTruncationAlwaysRecovers cuts the newest segment at a spread of
// points — every header boundary and the bytes either side of it, mid-header,
// mid-payload — and checks that the reopened store holds exactly the records
// lying wholly before the cut, and counts a cut record once as dropped.
func TestManifestTruncationAlwaysRecovers(t *testing.T) {
	base := t.TempDir()
	want := buildStore(t, base)
	recs := segmentRecords(t, base)
	newest := recs[len(recs)-1].seg
	var inNewest []record
	for _, r := range recs {
		if r.seg == newest {
			inNewest = append(inNewest, r)
		}
	}
	size := inNewest[len(inNewest)-1].end
	var cuts []int64
	for _, r := range inNewest {
		cuts = append(cuts, r.off, r.off+1, r.off+recordHeaderSize/2, r.off+recordHeaderSize-1,
			r.off+recordHeaderSize, (r.off+recordHeaderSize+r.end)/2, r.end-1)
	}
	for c := int64(0); c < size; c += 13 {
		cuts = append(cuts, c)
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		copyDir(t, base, dir)
		if err := os.Truncate(filepath.Join(dir, newest), cut); err != nil {
			t.Fatal(err)
		}
		whole, boundary := len(want)-len(inNewest), cut == 0
		for _, r := range inNewest {
			if r.end <= cut {
				whole++
			}
			boundary = boundary || r.end == cut
		}
		if hits := checkRecovery(t, dir, want); hits != whole {
			t.Fatalf("cut=%d: recovered %d records, want the %d wholly before it", cut, hits, whole)
		}
		s := mustOpen(t, dir, Options{})
		dropped := s.Stats().CorruptDropped
		s.Close()
		if boundary && dropped != 0 || !boundary && dropped != 1 {
			t.Fatalf("cut=%d: corrupt_dropped %d; a cut at a record boundary drops nothing, any other one record", cut, dropped)
		}
	}
}

// TestManifestBitFlipsAlwaysRecover covers record headers; no MANIFEST exists.
// It flips one bit at a spread of offsets in every record header — magic,
// kind, each key field, length, both sums — with no MANIFEST present (the
// test removes any, which a version 2 store needed to take its scan path). A flipped record is never returned under any key,
// its original or the one its rotten header now names; the records before it
// in its segment and every other segment recover.
func TestManifestBitFlipsAlwaysRecover(t *testing.T) {
	base := t.TempDir()
	want := buildStore(t, base)
	os.Remove(filepath.Join(base, "MANIFEST"))
	recs := segmentRecords(t, base)
	// Byte offsets in the header: magic, kind, the low byte of fp, a and b
	// (where a flip names another plausible key), length, payload sum,
	// header sum.
	positions := []int64{0, 3, 4, 5, 12, 20, 28, 29, 32, 36, 40}
	for i, r := range recs {
		lost := 0
		for _, o := range recs[i:] {
			if o.seg == r.seg {
				lost++
			}
		}
		for _, pos := range positions {
			for _, bit := range []byte{0x01, 0x04} {
				dir := t.TempDir()
				copyDir(t, base, dir)
				var rotten Key
				rewrite(t, filepath.Join(dir, r.seg), func(b []byte) []byte {
					h := b[r.off : r.off+recordHeaderSize]
					h[pos] ^= bit
					rotten = Key{Kind: Kind(h[4]), FP: binary.BigEndian.Uint64(h[5:]),
						A: binary.BigEndian.Uint64(h[13:]), B: binary.BigEndian.Uint64(h[21:])}
					return b
				})
				if hits := checkRecovery(t, dir, want, rotten); hits != len(want)-lost {
					t.Fatalf("record %d flip@%d^%#x: recovered %d/%d records, want all but the %d from it to its segment's end",
						i, pos, bit, hits, len(want), lost)
				}
			}
		}
	}
}

// TestHalfRenamedManifestUsesDurableCopy: the MANIFEST and MANIFEST.tmp files
// a version 2 build left beside its segments are ignored — not read, not
// removed — and do not stop the segments from recovering fully.
func TestHalfRenamedManifestUsesDurableCopy(t *testing.T) {
	base := t.TempDir()
	want := buildStore(t, base)
	dir := t.TempDir()
	copyDir(t, base, dir)
	stray := map[string][]byte{
		"MANIFEST":     []byte("LMAN\x00\x00\x00\x02 a manifest a version 2 build wrote"),
		"MANIFEST.tmp": []byte("garbage half-write"),
	}
	for name, b := range stray {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if hits := checkRecovery(t, dir, want); hits != len(want) {
		t.Fatalf("recovered %d/%d records", hits, len(want))
	}
	for name, b := range stray {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("stray %s changed: %q, %v", name, got, err)
		}
	}
}

// TestSegmentCorruptionDropsOnlyDamagedRecords: a flipped payload byte leaves
// the header clean, so Open indexes the record and its first Get drops it.
func TestSegmentCorruptionDropsOnlyDamagedRecords(t *testing.T) {
	base := t.TempDir()
	want := buildStore(t, base)
	segs, _ := filepath.Glob(filepath.Join(base, "seg-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}

	// The store as Close left it: Get's read-time checksum catches the one
	// rotten record, and the rest of the store is untouched.
	t.Run("manifest-intact", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, base, dir)
		corruptOneByte(t, filepath.Join(dir, filepath.Base(segs[0])))
		if hits := checkRecovery(t, dir, want); hits != len(want)-1 {
			t.Fatalf("one flipped payload byte: %d/%d records served, want all but one", hits, len(want))
		}
	})

	// Reopened after the drop: the record is indexed again, from its clean
	// header, and dropped again at its first read — never served.
	t.Run("rebuild", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, base, dir)
		corruptOneByte(t, filepath.Join(dir, filepath.Base(segs[0])))
		for round := range 2 {
			s := mustOpen(t, dir, Options{})
			if st := s.Stats(); st.Entries != len(want) || st.CorruptDropped != 0 {
				t.Fatalf("round %d: Open indexes every header-clean record, read none: %+v", round, st)
			}
			s.Close()
			if hits := checkRecovery(t, dir, want); hits != len(want)-1 {
				t.Fatalf("round %d: %d/%d records served, want all but one", round, hits, len(want))
			}
		}
	})
}

// corruptOneByte flips a byte inside the first record's payload region.
func corruptOneByte(t *testing.T, path string) {
	t.Helper()
	rewrite(t, path, func(b []byte) []byte {
		if len(b) <= recordHeaderSize+10 {
			t.Fatalf("segment too short to corrupt: %d bytes", len(b))
		}
		b[recordHeaderSize+10] ^= 0x01
		return b
	})
}

func TestTruncatedSegmentAbandonsTailOnly(t *testing.T) {
	base := t.TempDir()
	want := buildStore(t, base)
	dir := t.TempDir()
	copyDir(t, base, dir)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	// Chop the last segment mid-record: Open keeps every complete record and
	// abandons only the torn tail.
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-20); err != nil {
		t.Fatal(err)
	}
	if hits := checkRecovery(t, dir, want); hits != len(want)-1 {
		t.Fatalf("segment truncation: %d/%d records served, want all but the torn one", hits, len(want))
	}
}

// FuzzDecodeManifest covers record headers; no MANIFEST exists.
// It throws arbitrary bytes at the record-header decoder: it must never
// panic, and a header it accepts is bounded and canonical — it is exactly
// what encodeRecordHeader writes for the fields it decoded.
func FuzzDecodeManifest(f *testing.F) {
	k := batchKey(3)
	p := payloadFor(k, 64)
	h := encodeRecordHeader(k, uint32(len(p)), crc32c(p))
	flipped := h
	flipped[28] ^= 0x04 // batchKey(3) would read as batchKey(7)
	f.Add(append(h[:], p...))
	f.Add(h[:20])
	f.Add([]byte{})
	f.Add(flipped[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		key, plen, sum, err := decodeRecordHeader(data)
		if err != nil {
			return
		}
		if key.Kind != KindBatch && key.Kind != KindSample {
			t.Fatal("decoder accepted invalid kind")
		}
		if plen > maxPayload {
			t.Fatal("decoder accepted unbounded length")
		}
		if enc := encodeRecordHeader(key, plen, sum); !bytes.Equal(enc[:], data[:recordHeaderSize]) {
			t.Fatalf("accepted header %x re-encodes as %x", data[:recordHeaderSize], enc)
		}
	})
}

// FuzzOpenWithArbitraryManifest covers record headers; no MANIFEST exists.
// It plants fuzzer bytes as a segment older than a real store's, or appended
// to the tail of its newest segment: Open must always succeed without
// panicking, and every Get hit must return exactly the bytes Put under that
// key. (A planted tail is newer than the store, so
// a record in it with a clean header and payload is a Put like any other.)
func FuzzOpenWithArbitraryManifest(f *testing.F) {
	base := f.TempDir()
	// An empty segment 0 makes the store's own segments start at 1, so a
	// planted segment 0 is older than every one of them.
	if err := os.WriteFile(filepath.Join(base, segmentName(0)), nil, 0o644); err != nil {
		f.Fatal(err)
	}
	s, err := Open(base, Options{segmentBytes: 1 << 10})
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
	valid, err := os.ReadFile(filepath.Join(base, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	newestPath, _, err := LastRecord(base)
	if err != nil {
		f.Fatal(err)
	}
	newest := filepath.Base(newestPath)
	f.Add(valid, false)
	f.Add(valid[:len(valid)-3], true)
	f.Add([]byte("LRC3garbage"), true)
	f.Fuzz(func(t *testing.T, data []byte, asTail bool) {
		dir := t.TempDir()
		copyDir(t, base, dir)
		expect := want
		if asTail {
			rewrite(t, filepath.Join(dir, newest), func(b []byte) []byte { return append(b, data...) })
			expect = map[Key][]byte{}
			for k, p := range want {
				expect[k] = p
			}
			walkRecords(bytes.NewReader(data), int64(len(data)), func(off int64, key Key, plen, sum uint32) {
				if p := data[off+recordHeaderSize : off+recordHeaderSize+int64(plen)]; crc32c(p) == sum {
					expect[key] = p
				}
			})
		} else if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open must recover from arbitrary segment bytes: %v", err)
		}
		defer st.Close()
		for k, p := range expect {
			if got, ok := st.Get(k, nil); ok && !bytes.Equal(got, p) {
				t.Fatalf("stale bytes served for %+v", k)
			}
		}
	})
}

// writeOldDirectory lays down a store of an older record format by hand, one
// sealed segment with every sum valid holding payloadFor(k, 200) for each
// key: version 1 ("LREC" records, FNV-1a 64 sums) or version 2 ("LRC2", 37-byte
// headers, CRC32C payload sums, no header sum). Both builds kept a MANIFEST,
// which is planted as well.
func writeOldDirectory(t *testing.T, dir string, version int, keys []Key) {
	t.Helper()
	be := binary.BigEndian
	var seg []byte
	for _, k := range keys {
		p := payloadFor(k, 200)
		magic := uint32(0x4C524332) // "LRC2"
		if version == 1 {
			magic = 0x4C524543 // "LREC"
		}
		seg = be.AppendUint32(seg, magic)
		seg = append(seg, byte(k.Kind))
		seg = be.AppendUint64(seg, k.FP)
		seg = be.AppendUint64(seg, k.A)
		seg = be.AppendUint64(seg, k.B)
		seg = be.AppendUint32(seg, uint32(len(p)))
		if version == 1 {
			h := fnv.New64a()
			h.Write(p)
			seg = be.AppendUint64(seg, h.Sum64())
		} else {
			seg = be.AppendUint32(seg, crc32c(p))
		}
		seg = append(seg, p...)
	}
	man := be.AppendUint32(nil, 0x4C4D414E) // "LMAN"
	man = be.AppendUint32(man, uint32(version))
	for name, b := range map[string][]byte{segmentName(0): seg, "MANIFEST": man} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenV1DirectoryServesNothing: a directory written at format version 1
// or 2 opens without error as an empty store — each record fails the magic
// check, so its old segment is abandoned at its first header (one
// corrupt_dropped) and not one record is trusted as a version 3 one — and
// then refills and reopens warm like any other.
func TestOpenV1DirectoryServesNothing(t *testing.T) {
	for _, version := range []int{1, 2} {
		dir := t.TempDir()
		keys := []Key{batchKey(0), batchKey(1), sampleKey(0), sampleKey(1)}
		writeOldDirectory(t, dir, version, keys)

		s := mustOpen(t, dir, Options{})
		for _, k := range keys {
			if _, ok := s.Get(k, nil); ok {
				t.Fatalf("served version %d record %+v", version, k)
			}
		}
		st := s.Stats()
		if st.Entries != 0 || st.BatchHits+st.SampleHits != 0 || st.CorruptDropped != 1 {
			t.Fatalf("after opening a version %d directory: %+v", version, st)
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
		for _, k := range keys {
			if got, ok := s.Get(k, nil); !ok || !bytes.Equal(got, payloadFor(k, 300)) {
				t.Fatalf("version %d: refilled record %+v not served after reopen", version, k)
			}
		}
		if st := s.Stats(); st.Entries != len(keys) {
			t.Fatalf("version %d: reopen after refill: %+v", version, st)
		}
		s.Close()
	}
}

// TestSegmentIDsPastSixDigits: segment ids only grow, and past
// seg-999999.seg the names gain a digit. A store whose segments straddle
// that point recovers every one of them, in id order — so where a key was
// re-put after a drop, the newer record wins — and LastRecord finds the
// newest by id, not by name.
func TestSegmentIDsPastSixDigits(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(999_998)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{segmentBytes: 1})
	k := sampleKey(0)
	if err := s.Put(k, payloadFor(k, 50)); err != nil { // seg-999999.seg
		t.Fatal(err)
	}
	s.Drop(k)
	want := map[Key][]byte{k: payloadFor(k, 60)}
	for i := 1; i < 4; i++ {
		want[sampleKey(i)] = payloadFor(sampleKey(i), 60)
	}
	for _, key := range []Key{k, sampleKey(1), sampleKey(2), sampleKey(3)} { // seg-1000000.seg on
		if err := s.Put(key, want[key]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if hits := checkRecovery(t, dir, want); hits != len(want) {
		t.Fatalf("recovered %d/%d records across seg-999999 → seg-1000000", hits, len(want))
	}
	if path, _, err := LastRecord(dir); err != nil || filepath.Base(path) != segmentName(1_000_003) {
		t.Fatalf("LastRecord: %s, %v; want %s", path, err, segmentName(1_000_003))
	}
}
