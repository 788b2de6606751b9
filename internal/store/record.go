package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Record format, version 3. All integers are big-endian.
//
//	u32 magic "LRC3" | u8 kind | u64 fp | u64 a | u64 b |
//	u32 payloadLen   | u32 payloadSum | u32 headerSum | payload...
//
// payloadSum is the payload's CRC32C (the frame's wire digest); headerSum is
// the CRC32C of the 33 bytes between the magic and itself, so a header can
// be indexed without reading its payload. Versions 1 ("LREC") and 2 ("LRC2")
// fail the magic check: a directory they wrote opens empty and refills.
const (
	recordMagic      = uint32(0x4C524333) // "LRC3"
	recordHeaderSize = 4 + 1 + 8 + 8 + 8 + 4 + 4 + 4
	// maxPayload bounds the payload lengths Open accepts, so one rotten
	// header cannot claim the rest of the address space.
	maxPayload = 1 << 30
)

func encodeRecordHeader(key Key, payloadLen, sum uint32) [recordHeaderSize]byte {
	var h [recordHeaderSize]byte
	binary.BigEndian.PutUint32(h[0:], recordMagic)
	h[4] = byte(key.Kind)
	binary.BigEndian.PutUint64(h[5:], key.FP)
	binary.BigEndian.PutUint64(h[13:], key.A)
	binary.BigEndian.PutUint64(h[21:], key.B)
	binary.BigEndian.PutUint32(h[29:], payloadLen)
	binary.BigEndian.PutUint32(h[33:], sum)
	binary.BigEndian.PutUint32(h[37:], crc32c(h[4:37]))
	return h
}

// decodeRecordHeader checks one header — magic, headerSum, kind, payload
// length — and returns the key and the payload's length and CRC32C. Whether
// the payload fits in its file is the caller's check.
func decodeRecordHeader(h []byte) (key Key, payloadLen, sum uint32, err error) {
	if len(h) < recordHeaderSize {
		return Key{}, 0, 0, fmt.Errorf("short header (%d bytes)", len(h))
	}
	if binary.BigEndian.Uint32(h[0:]) != recordMagic {
		return Key{}, 0, 0, fmt.Errorf("bad record magic")
	}
	if crc32c(h[4:37]) != binary.BigEndian.Uint32(h[37:]) {
		return Key{}, 0, 0, fmt.Errorf("header checksum mismatch")
	}
	key = Key{
		Kind: Kind(h[4]),
		FP:   binary.BigEndian.Uint64(h[5:]),
		A:    binary.BigEndian.Uint64(h[13:]),
		B:    binary.BigEndian.Uint64(h[21:]),
	}
	if key.Kind != KindBatch && key.Kind != KindSample {
		return Key{}, 0, 0, fmt.Errorf("bad kind %d", key.Kind)
	}
	payloadLen = binary.BigEndian.Uint32(h[29:])
	if payloadLen > maxPayload {
		return Key{}, 0, 0, fmt.Errorf("payload length %d over bound", payloadLen)
	}
	return key, payloadLen, binary.BigEndian.Uint32(h[33:]), nil
}

// recover builds the index on Open from the segments alone. It opens every
// segment file, sealed, and scans them in id order, so where two records
// share a key the newer one wins. Payloads are not read here: GetDigest
// verifies each one when it is first read.
func (s *Store) recover() error {
	ids, err := segmentIDs(s.dir, s.logf)
	if err != nil {
		return err
	}
	for _, id := range ids {
		s.nextSeg = id + 1 // never reuse an id, even one that fails to open
		name := segmentName(id)
		f, err := os.Open(filepath.Join(s.dir, name))
		if err != nil {
			s.logf("store: open %s: %v", name, err)
			continue
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			continue
		}
		seg := &segment{id: id, f: f, size: st.Size(), sealed: true}
		s.segs[id] = seg
		s.bytes += st.Size()
		s.scanSegment(seg)
	}
	return nil
}

// segmentIDs lists the ids of the segment files in dir in ascending order —
// numerically: past seg-999999.seg the names grow a digit and stop sorting
// as their ids do. Any other seg-*.seg name is passed to logf and skipped.
func segmentIDs(dir string, logf func(format string, args ...any)) ([]uint32, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", dir, err)
	}
	var ids []uint32
	for _, path := range names {
		name := filepath.Base(path)
		id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg"), 10, 32)
		if err != nil || segmentName(uint32(id)) != name {
			logf("store: ignoring unparseable segment name %q", name)
			continue
		}
		ids = append(ids, uint32(id))
	}
	slices.Sort(ids)
	return ids, nil
}

// scanSegment indexes seg's records by their headers, from the start of the
// file. A header that fails its checks ends the scan — the length it gives
// cannot be trusted, so nothing behind it can be found — and counts once in
// corruptDropped.
func (s *Store) scanSegment(seg *segment) {
	off, err := walkRecords(seg.f, seg.size, func(off int64, key Key, plen, sum uint32) {
		s.idx[key] = loc{seg: seg.id, off: off, len: plen, sum: sum}
	})
	if err != nil {
		s.corruptDropped++
		s.logf("store: scan seg %d off %d: %v; abandoning the rest of the segment", seg.id, off, err)
	}
}

// walkRecords reads the record headers of a segment of size bytes in order,
// calling fn for each one that passes its checks and whose payload ends
// within the segment. It returns the offset where it stopped and, unless
// that is the end of the segment, why.
func walkRecords(r io.ReaderAt, size int64, fn func(off int64, key Key, plen, sum uint32)) (int64, error) {
	var hdr [recordHeaderSize]byte
	off := int64(0)
	for off < size {
		if _, err := r.ReadAt(hdr[:], off); err != nil {
			return off, fmt.Errorf("read header: %w", err)
		}
		key, plen, sum, err := decodeRecordHeader(hdr[:])
		if err != nil {
			return off, err
		}
		end := off + recordHeaderSize + int64(plen)
		if end > size {
			return off, fmt.Errorf("payload of %d bytes runs past the end of the segment", plen)
		}
		fn(off, key, plen, sum)
		off = end
	}
	return off, nil
}

// LastRecord returns the path of the newest segment in dir and the offset of
// the last record Open would index in it: the record a crash mid-append
// would have torn. Fault-injection runs use it to damage a store on purpose.
func LastRecord(dir string) (path string, off int64, err error) {
	ids, err := segmentIDs(dir, func(string, ...any) {})
	if err != nil {
		return "", 0, err
	}
	if len(ids) == 0 {
		return "", 0, fmt.Errorf("store: no segment in %s", dir)
	}
	path = filepath.Join(dir, segmentName(ids[len(ids)-1]))
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", 0, err
	}
	off = -1
	// A header that fails its checks ends the walk where it ends Open's scan.
	walkRecords(f, st.Size(), func(o int64, _ Key, _, _ uint32) { off = o })
	if off < 0 {
		return "", 0, fmt.Errorf("store: no record in %s", path)
	}
	return path, off, nil
}
