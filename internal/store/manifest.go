package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// On-disk formats, version 2. All integers are big-endian.
//
// Record (in a segment file):
//
//	u32 magic "LRC2" | u8 kind | u64 fp | u64 a | u64 b |
//	u32 payloadLen   | u32 payloadSum(CRC32C) | payload...
//
// Manifest (MANIFEST, written tmp+fsync+rename):
//
//	u32 magic "LMAN" | u32 version |
//	u32 segCount   | segCount  x (u32 id | u64 durableSize) |
//	u32 entryCount | entryCount x (u8 kind | u64 fp | u64 a | u64 b |
//	                               u32 seg | u64 off | u32 len | u32 sum) |
//	u32 selfSum(CRC32C of all preceding bytes)
//
// Version 1 ("LREC" records, u64 FNV-1a sums) is recognised only to be
// refused: its manifest fails the version check and its records the magic
// check, so a rebuild over a version 1 directory indexes nothing.
const (
	recordMagic       = uint32(0x4C524332) // "LRC2"
	manifestMagic     = uint32(0x4C4D414E) // "LMAN"
	manifestVersion   = uint32(2)
	recordHeaderSize  = 4 + 1 + 8 + 8 + 8 + 4 + 4
	manifestEntrySize = 1 + 8 + 8 + 8 + 4 + 8 + 4 + 4
	manifestName      = "MANIFEST"
	// maxPayload bounds payload lengths accepted during recovery scans so a
	// corrupt length field cannot trigger a huge allocation.
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
	return h
}

// writeManifestLocked durably replaces MANIFEST with the current index:
// write to MANIFEST.tmp, fsync, atomically rename over MANIFEST, fsync the
// directory. A torn-manifest fault truncates the tmp file before the rename
// — modeling a crash where the rename was reordered before the data blocks —
// which the self-checksum catches on the next open.
func (s *Store) writeManifestLocked() error {
	buf := s.encodeManifestLocked()
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: manifest tmp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: manifest write: %w", err)
	}
	if s.opts.Faults.NextManifestTorn() {
		f.Truncate(int64(len(buf) / 2))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: manifest sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: manifest close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("store: manifest rename: %w", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func (s *Store) encodeManifestLocked() []byte {
	segIDs := make([]uint32, 0, len(s.segs))
	for id := range s.segs {
		segIDs = append(segIDs, id)
	}
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })

	keys := make([]Key, 0, len(s.idx))
	for k := range s.idx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.FP != b.FP {
			return a.FP < b.FP
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})

	buf := make([]byte, 0, 12+len(segIDs)*12+4+len(keys)*manifestEntrySize+4)
	buf = binary.BigEndian.AppendUint32(buf, manifestMagic)
	buf = binary.BigEndian.AppendUint32(buf, manifestVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(segIDs)))
	for _, id := range segIDs {
		buf = binary.BigEndian.AppendUint32(buf, id)
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.segs[id].size))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		l := s.idx[k]
		buf = append(buf, byte(k.Kind))
		buf = binary.BigEndian.AppendUint64(buf, k.FP)
		buf = binary.BigEndian.AppendUint64(buf, k.A)
		buf = binary.BigEndian.AppendUint64(buf, k.B)
		buf = binary.BigEndian.AppendUint32(buf, l.seg)
		buf = binary.BigEndian.AppendUint64(buf, uint64(l.off))
		buf = binary.BigEndian.AppendUint32(buf, l.len)
		buf = binary.BigEndian.AppendUint32(buf, l.sum)
	}
	return binary.BigEndian.AppendUint32(buf, crc32c(buf))
}

type manifestEntry struct {
	key Key
	loc loc
}

type manifest struct {
	durable map[uint32]int64 // segment id -> size covered by this manifest
	entries []manifestEntry
}

// decodeManifest parses and self-checks a manifest image. Any structural
// damage — short file, bad magic, another format version, counts past EOF,
// checksum mismatch — returns an error; the caller falls back to a full
// rebuild. Magic and version are checked before the checksum because the
// checksum's own width and algorithm depend on the version.
func decodeManifest(buf []byte) (*manifest, error) {
	if len(buf) < 12+4 {
		return nil, fmt.Errorf("store: manifest too short (%d bytes)", len(buf))
	}
	if binary.BigEndian.Uint32(buf[0:]) != manifestMagic {
		return nil, fmt.Errorf("store: bad manifest magic")
	}
	if v := binary.BigEndian.Uint32(buf[4:]); v != manifestVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d", v)
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32c(body) != binary.BigEndian.Uint32(tail) {
		return nil, fmt.Errorf("store: manifest checksum mismatch")
	}
	p := 8
	need := func(n int) error {
		if len(body)-p < n {
			return fmt.Errorf("store: manifest truncated at %d", p)
		}
		return nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	segCount := int(binary.BigEndian.Uint32(body[p:]))
	p += 4
	m := &manifest{durable: make(map[uint32]int64, segCount)}
	for i := 0; i < segCount; i++ {
		if err := need(12); err != nil {
			return nil, err
		}
		id := binary.BigEndian.Uint32(body[p:])
		size := int64(binary.BigEndian.Uint64(body[p+4:]))
		if size < 0 {
			return nil, fmt.Errorf("store: manifest segment %d negative size", id)
		}
		m.durable[id] = size
		p += 12
	}
	if err := need(4); err != nil {
		return nil, err
	}
	entryCount := int(binary.BigEndian.Uint32(body[p:]))
	p += 4
	for i := 0; i < entryCount; i++ {
		if err := need(manifestEntrySize); err != nil {
			return nil, err
		}
		e := manifestEntry{
			key: Key{
				Kind: Kind(body[p]),
				FP:   binary.BigEndian.Uint64(body[p+1:]),
				A:    binary.BigEndian.Uint64(body[p+9:]),
				B:    binary.BigEndian.Uint64(body[p+17:]),
			},
			loc: loc{
				seg: binary.BigEndian.Uint32(body[p+25:]),
				off: int64(binary.BigEndian.Uint64(body[p+29:])),
				len: binary.BigEndian.Uint32(body[p+37:]),
				sum: binary.BigEndian.Uint32(body[p+41:]),
			},
		}
		if e.key.Kind != KindBatch && e.key.Kind != KindSample {
			return nil, fmt.Errorf("store: manifest entry %d bad kind %d", i, e.key.Kind)
		}
		if e.loc.off < 0 || e.loc.len > maxPayload {
			return nil, fmt.Errorf("store: manifest entry %d bad location", i)
		}
		m.entries = append(m.entries, e)
		p += manifestEntrySize
	}
	if p != len(body) {
		return nil, fmt.Errorf("store: manifest has %d trailing bytes", len(body)-p)
	}
	return m, nil
}

// recover rebuilds the in-memory index on Open. With a valid manifest it
// trusts the manifest's entries (bounds-checked against the live files) and
// scans only each segment's suffix beyond the manifest-recorded durable
// size, picking up records appended after the last manifest write. With a
// missing or corrupt manifest and segments on disk it rebuilds the whole
// index by scanning every segment (counted in Stats.Rebuilds). Records that
// fail their checksum are dropped; structural damage stops the scan of that
// segment. Every recovered segment is sealed.
func (s *Store) recover() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: readdir %s: %w", s.dir, err)
	}
	var maxID uint32
	haveSegs := false
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var id uint32
		if _, err := fmt.Sscanf(name, "seg-%06d.seg", &id); err != nil {
			s.logf("store: ignoring unparseable segment name %q", name)
			continue
		}
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
		s.segs[id] = &segment{id: id, f: f, size: st.Size(), sealed: true}
		s.bytes += st.Size()
		if id >= maxID {
			maxID = id + 1
		}
		haveSegs = true
	}
	s.nextSeg = maxID

	var man *manifest
	if buf, err := os.ReadFile(filepath.Join(s.dir, manifestName)); err == nil {
		man, err = decodeManifest(buf)
		if err != nil {
			s.logf("store: %v; rebuilding index from segments", err)
			man = nil
		}
	}
	// A leftover MANIFEST.tmp is a crashed write; the renamed MANIFEST (or
	// the rebuild) is authoritative, so discard it.
	os.Remove(filepath.Join(s.dir, manifestName+".tmp"))

	switch {
	case man != nil:
		for _, e := range man.entries {
			seg, ok := s.segs[e.loc.seg]
			if !ok || e.loc.off+recordHeaderSize+int64(e.loc.len) > seg.size {
				s.corruptDropped++
				continue
			}
			s.idx[e.key] = e.loc
		}
		// Scan each segment's suffix for records appended after the last
		// manifest write (the crash-between-append-and-manifest window).
		for id, seg := range s.segs {
			durable := man.durable[id]
			if durable < 0 || durable > seg.size {
				durable = 0
			}
			s.scanSegment(seg, durable)
		}
	case haveSegs:
		s.rebuilds++
		for _, seg := range s.segs {
			s.scanSegment(seg, 0)
		}
	}
	return nil
}

// scanSegment walks records from off to the end of the segment, indexing
// checksum-clean ones. A record whose payload fails its checksum is skipped
// (the header told us its length, so the scan continues behind it);
// structural damage — bad magic, truncated header or payload, absurd length
// — ends the scan, abandoning the tail.
func (s *Store) scanSegment(seg *segment, off int64) {
	var hdr [recordHeaderSize]byte
	for off+recordHeaderSize <= seg.size {
		if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
			s.logf("store: scan seg %d off %d: %v", seg.id, off, err)
			return
		}
		if binary.BigEndian.Uint32(hdr[0:]) != recordMagic {
			s.logf("store: scan seg %d off %d: bad record magic, abandoning tail", seg.id, off)
			return
		}
		kind := Kind(hdr[4])
		if kind != KindBatch && kind != KindSample {
			s.logf("store: scan seg %d off %d: bad kind %d, abandoning tail", seg.id, off, kind)
			return
		}
		plen := binary.BigEndian.Uint32(hdr[29:])
		if plen > maxPayload || off+recordHeaderSize+int64(plen) > seg.size {
			s.logf("store: scan seg %d off %d: truncated record, abandoning tail", seg.id, off)
			return
		}
		key := Key{
			Kind: kind,
			FP:   binary.BigEndian.Uint64(hdr[5:]),
			A:    binary.BigEndian.Uint64(hdr[13:]),
			B:    binary.BigEndian.Uint64(hdr[21:]),
		}
		sum := binary.BigEndian.Uint32(hdr[33:])
		payload := make([]byte, plen)
		if _, err := io.ReadFull(io.NewSectionReader(seg.f, off+recordHeaderSize, int64(plen)), payload); err != nil {
			s.logf("store: scan seg %d off %d: %v", seg.id, off, err)
			return
		}
		if crc32c(payload) == sum {
			s.idx[key] = loc{seg: seg.id, off: off, len: plen, sum: sum}
		} else {
			s.corruptDropped++
			s.logf("store: scan seg %d off %d: checksum mismatch, dropping record", seg.id, off)
		}
		off += recordHeaderSize + int64(plen)
	}
}
