// Package store is the persistent disk tier under the in-memory LRU caches:
// a content-addressed, checksummed segment store that survives process
// restarts and is shared across jobs with the same pipeline spec.
//
// Layout: records (encoded batch frames and split-point sample snapshots)
// are appended to segment files (seg-NNNNNN.seg). Each record's header names
// its key, its payload's length and CRC32C — the per-frame digest of the wire
// protocol (serve.Digest), so a batch frame read back from disk enters the
// serving path with its digest already known — and carries a CRC32C of its
// own. The segments are the only index on disk: Open lists them and indexes
// every header-clean record, reading no payload, so a store recovers the same
// way whether it was closed, killed mid-append or crashed mid-roll.
//
// Crash-safety contract: the index holds header-clean records; a payload that
// fails its digest is dropped at its first read and never served. A header
// that fails its checks ends the scan of its segment, since the length it
// gives cannot be trusted. Corruption therefore degrades to a miss (and a
// recompute upstream), never to wrong data. CRC32C detects every 1-3-bit
// error and every burst up to 32 bits in a header or payload, anything else
// with probability 1 - 2^-32.
//
// Format version 3. Version 1 ("LREC", FNV-1a-64 sums) and version 2
// ("LRC2", no header sum) records fail the magic check: a directory written
// by either opens as an empty store and refills. A MANIFEST file left by a
// version 2 build is ignored.
//
// Eviction is segment-granular: when the byte budget is exceeded the
// least-recently-used sealed segment is deleted whole, together with its
// index entries. The active segment is never evicted.
package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lotus/internal/faultinject"
)

// Kind tags the record namespace so batch frames and sample snapshots can
// never alias even with colliding fingerprints.
type Kind uint8

const (
	// KindBatch records hold encoded wire frames keyed by
	// (SpecFingerprint, epoch, globalID).
	KindBatch Kind = 1
	// KindSample records hold split-point sample snapshots keyed by
	// (PrefixFingerprint, sample index).
	KindSample Kind = 2
)

// Key addresses one record. FP is the spec or prefix fingerprint; A and B
// carry the per-kind coordinates (epoch/globalID for batches, sample
// index/0 for samples).
type Key struct {
	Kind Kind
	FP   uint64
	A    uint64
	B    uint64
}

// Options configures Open. The zero value means: unlimited budget, default
// segment size, default queue depth, no fault injection.
type Options struct {
	// Budget is the soft byte budget across all segment files; <= 0 means
	// unlimited. Exceeding it evicts whole LRU sealed segments.
	Budget int64
	// SegmentBytes is the roll-over threshold for the active segment
	// (default 4 MiB, or a quarter of a Budget under 16 MiB: eviction frees
	// whole sealed segments, so a segment as large as the budget could never
	// be evicted back under it).
	SegmentBytes int64
	// QueueBytes bounds the payload bytes PutAsync may have queued for the
	// writer (default 32 MiB). A producer that would exceed it waits for the
	// writer — backpressure, not loss — so the backlog of copies is a constant
	// however much faster than the disk the producers are. A payload larger
	// than the bound is admitted once the queue is empty. A writer that makes
	// no room within spillWait is stalled, and the spill is dropped instead.
	QueueBytes int64
	// Faults injects corrupt-append and writer-stall failures in chaos runs.
	// Nil injects nothing.
	Faults *faultinject.Injector
	// Logf receives recovery and I/O-error diagnostics. Nil discards.
	Logf func(format string, args ...any)
}

// Stats is the /metrics disk_cache block.
type Stats struct {
	BatchHits       int64 `json:"batch_hits"`
	BatchMisses     int64 `json:"batch_misses"`
	SampleHits      int64 `json:"sample_hits"`
	SampleMisses    int64 `json:"sample_misses"`
	Spills          int64 `json:"spills"`           // records appended
	SpillsDeduped   int64 `json:"spills_deduped"`   // already on disk
	SpillsDropped   int64 `json:"spills_dropped"`   // I/O error or stalled writer
	CorruptDropped  int64 `json:"corrupt_dropped"`  // checksum-failing records and segment tails dropped
	Segments        int   `json:"segments"`         // live segment files
	SegmentsEvicted int64 `json:"segments_evicted"` // segments deleted for budget
	Entries         int   `json:"entries"`          // indexed records
	BytesUsed       int64 `json:"bytes_used"`
	BytesBudget     int64 `json:"bytes_budget"`
}

// loc points at one record inside a segment. off is the record start (the
// header); the payload follows at off+recordHeaderSize.
type loc struct {
	seg uint32
	off int64
	len uint32
	sum uint32
}

type segment struct {
	id      uint32
	f       *os.File
	size    int64
	sealed  bool
	lastUse int64 // monotonic tick, for LRU eviction
}

type putReq struct {
	key     Key
	payload []byte // store-owned copy; nil means flush
	flush   bool
	async   bool // PutAsync: payload is counted in Store.queued until appended
	done    chan error
}

// Store is a persistent cache tier. All methods are safe for concurrent
// use. Appends are serialized through one writer goroutine, so the serving
// path waits on disk I/O only when it asks to (Put/Flush) or, for at most
// spillWait, when PutAsync's backlog is at its byte bound.
type Store struct {
	dir  string
	opts Options

	// life guards the closed flag and the queue send against Close closing
	// the channel mid-send.
	life   sync.RWMutex
	closed bool
	queue  chan putReq
	wg     sync.WaitGroup
	// stop is closed when Close begins; it releases a writer stalled by
	// faultinject.Spec.DiskStall.
	stop     chan struct{}
	stopOnce sync.Once

	// mu guards everything below — the index, not the segment files' bytes:
	// Get reads and verifies a record with mu released, which is safe because
	// an indexed record is never rewritten and a read that loses the race
	// with its segment's eviction fails cleanly (see Get).
	mu      sync.Mutex
	idx     map[Key]loc
	segs    map[uint32]*segment
	active  *segment
	nextSeg uint32
	tick    int64
	bytes   int64
	// queued is the payload bytes PutAsync has handed the writer and the
	// writer has not appended yet; room wakes producers waiting for it to
	// fall under opts.QueueBytes.
	queued int64
	room   *sync.Cond

	batchHits      int64
	batchMisses    int64
	sampleHits     int64
	sampleMisses   int64
	spills         int64
	spillsDeduped  int64
	spillsDropped  int64
	corruptDropped int64
	segsEvicted    int64
}

const (
	defaultSegmentBytes = 4 << 20
	defaultQueueBytes   = 32 << 20
	// queueSlots is the writer channel's capacity; a full channel makes its
	// sender wait like the byte bound does.
	queueSlots = 256
	// spillWait bounds how long PutAsync waits for the writer to make room.
	// Producers spill on the compute path, so a writer stuck on a hung disk
	// must not stop them: past the bound the spill is dropped and counted,
	// and serving goes on at the no-disk rate. A healthy writer frees room
	// within one append: spilling 19 MB frames to a 2-vCPU host's virtual
	// disk, no producer waited longer than 0.17 s.
	spillWait = time.Second
)

// Open opens (or creates) the store at dir, indexing the record headers of
// every segment in it. All recovered segments are sealed; appends always go
// to a fresh segment, so recovery never overwrites bytes it just indexed.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
		if opts.Budget > 0 {
			opts.SegmentBytes = min(opts.SegmentBytes, max(opts.Budget/4, 1))
		}
	}
	if opts.QueueBytes <= 0 {
		opts.QueueBytes = defaultQueueBytes
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		queue: make(chan putReq, queueSlots),
		stop:  make(chan struct{}),
		idx:   make(map[Key]loc),
		segs:  make(map[uint32]*segment),
	}
	s.room = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		for _, seg := range s.segs {
			seg.f.Close()
		}
		return nil, err
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Get reads the record for key, verifying its digest. alloc, when
// non-nil, provides the destination buffer (e.g. a pooled frame box) and
// must return a slice of at least the requested length; on a miss after
// alloc was called the caller's buffer is simply not returned, so callers
// that pool should allocate lazily via the callback. Corrupt records are
// dropped from the index and reported as misses — never served.
func (s *Store) Get(key Key, alloc func(n int) []byte) ([]byte, bool) {
	buf, _, ok := s.GetDigest(key, alloc)
	return buf, ok
}

// GetDigest is Get that also returns the CRC32C it verified, so a caller
// that needs the payload's digest (a batch frame) does not hash it again.
//
// Only the index lookup and the outcome are under the store lock; alloc, the
// read and the verify pass — tens of milliseconds for a 19 MB frame — run
// with it released, so concurrent Gets, spills and Stats do not queue behind
// one another. A sealed segment can be evicted meanwhile: closing its file
// waits out a read already in flight and fails one that starts later, and
// either way the record is gone from the index, which is a miss, not
// corruption.
func (s *Store) GetDigest(key Key, alloc func(n int) []byte) ([]byte, uint32, bool) {
	s.mu.Lock()
	l, ok := s.idx[key]
	var seg *segment
	if ok {
		if seg = s.segs[l.seg]; seg == nil {
			delete(s.idx, key)
			ok = false
		}
	}
	if !ok {
		s.missLocked(key.Kind)
		s.mu.Unlock()
		return nil, 0, false
	}
	s.tick++
	seg.lastUse = s.tick
	s.mu.Unlock()

	var buf []byte
	if alloc != nil {
		buf = alloc(int(l.len))[:l.len]
	} else {
		buf = make([]byte, l.len)
	}
	_, err := seg.f.ReadAt(buf, l.off+recordHeaderSize)
	clean := err == nil && crc32c(buf) == l.sum

	s.mu.Lock()
	defer s.mu.Unlock()
	if clean {
		s.hitLocked(key.Kind)
		return buf, l.sum, true
	}
	if s.idx[key] == l && s.segs[l.seg] == seg {
		if err != nil {
			s.logf("store: read seg %d off %d: %v", l.seg, l.off, err)
		} else {
			s.logf("store: checksum mismatch seg %d off %d, dropping record", l.seg, l.off)
		}
		delete(s.idx, key)
		s.corruptDropped++
	}
	s.missLocked(key.Kind)
	return nil, 0, false
}

func (s *Store) hitLocked(k Kind) {
	if k == KindBatch {
		s.batchHits++
	} else {
		s.sampleHits++
	}
}

func (s *Store) missLocked(k Kind) {
	if k == KindBatch {
		s.batchMisses++
	} else {
		s.sampleMisses++
	}
}

// Contains reports whether key is indexed (without checksum verification or
// LRU touch).
func (s *Store) Contains(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx[key]
	return ok
}

// Drop removes key from the index (the bytes stay until the segment is
// evicted). Used when a stored record turns out to be undecodable.
func (s *Store) Drop(key Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[key]; ok {
		delete(s.idx, key)
		s.corruptDropped++
	}
}

// PutAsync queues payload for appending and returns without waiting for the
// write — unless the queue already holds Options.QueueBytes, in which case it
// first waits for the writer to make room (or for the key to land on disk,
// which makes the call a no-op). A writer that makes no room within spillWait
// is stalled: the spill is dropped and counted in SpillsDropped. The payload
// is copied, after room has been reserved, before PutAsync returns; the
// caller keeps ownership of its slice.
func (s *Store) PutAsync(key Key, payload []byte) {
	s.life.RLock()
	defer s.life.RUnlock()
	if s.closed {
		return
	}
	n := int64(len(payload))
	deadline := time.Now().Add(spillWait)
	s.mu.Lock()
	for {
		if _, ok := s.idx[key]; ok {
			s.spillsDeduped++
			s.mu.Unlock()
			return
		}
		if s.queued == 0 || s.queued+n <= s.opts.QueueBytes {
			break
		}
		if !s.waitRoomLocked(deadline) {
			s.spillsDropped++
			s.mu.Unlock()
			return
		}
	}
	s.queued += n
	s.mu.Unlock()
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	select {
	case s.queue <- putReq{key: key, payload: append([]byte(nil), payload...), async: true}:
	case <-timeout.C: // every slot taken by spills the writer is not taking
		s.mu.Lock()
		s.queued -= n
		s.spillsDropped++
		s.mu.Unlock()
		s.room.Broadcast()
	}
}

// waitRoomLocked waits on room until the writer signals or deadline passes,
// reporting false if the deadline had already passed. Called with mu held.
func (s *Store) waitRoomLocked(deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	// The wake-up takes mu, so it cannot fall between the caller's check and
	// its Wait.
	wake := time.AfterFunc(d, func() {
		s.mu.Lock()
		s.mu.Unlock()
		s.room.Broadcast()
	})
	s.room.Wait()
	wake.Stop()
	return true
}

// Put appends payload synchronously (waits for the write, not for fsync).
func (s *Store) Put(key Key, payload []byte) error {
	s.life.RLock()
	defer s.life.RUnlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	done := make(chan error, 1)
	cp := append([]byte(nil), payload...)
	s.queue <- putReq{key: key, payload: cp, done: done}
	return <-done
}

// Flush drains queued spills and makes every record appended so far durable.
func (s *Store) Flush() error {
	s.life.RLock()
	if s.closed {
		s.life.RUnlock()
		return nil
	}
	done := make(chan error, 1)
	s.queue <- putReq{flush: true, done: done}
	s.life.RUnlock()
	return <-done
}

// Close drains the spill queue, makes it durable as Flush does, and closes
// every segment file. Safe to call twice.
func (s *Store) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.life.Lock()
	if s.closed {
		s.life.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.life.Unlock()
	s.wg.Wait()

	err := s.sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != nil {
		s.active.sealed = true
		s.active = nil
	}
	for _, seg := range s.segs {
		seg.f.Close()
	}
	return err
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		BatchHits:       s.batchHits,
		BatchMisses:     s.batchMisses,
		SampleHits:      s.sampleHits,
		SampleMisses:    s.sampleMisses,
		Spills:          s.spills,
		SpillsDeduped:   s.spillsDeduped,
		SpillsDropped:   s.spillsDropped,
		CorruptDropped:  s.corruptDropped,
		Segments:        len(s.segs),
		SegmentsEvicted: s.segsEvicted,
		Entries:         len(s.idx),
		BytesUsed:       s.bytes,
		BytesBudget:     s.opts.Budget,
	}
}

// writer is the single appender: it serializes segment writes, syncs,
// roll-over, and eviction, so the serving path never contends on disk I/O.
func (s *Store) writer() {
	defer s.wg.Done()
	for req := range s.queue {
		if req.flush {
			req.done <- s.sync()
			continue
		}
		if s.opts.Faults.NextDiskStall() {
			<-s.stop
		}
		err := s.append(req.key, req.payload)
		if req.async {
			s.mu.Lock()
			s.queued -= int64(len(req.payload))
			s.mu.Unlock()
			s.room.Broadcast()
		}
		if req.done != nil {
			req.done <- err
		}
	}
}

// append writes one record to the active segment, rolling and evicting as
// needed. Runs only on the writer goroutine.
func (s *Store) append(key Key, payload []byte) error {
	s.mu.Lock()
	if _, ok := s.idx[key]; ok {
		s.spillsDeduped++
		s.mu.Unlock()
		return nil
	}
	if s.active == nil {
		seg, err := s.newSegmentLocked()
		if err != nil {
			s.spillsDropped++
			s.mu.Unlock()
			s.logf("store: create segment: %v", err)
			return err
		}
		s.active = seg
	}
	seg := s.active
	off := seg.size
	s.mu.Unlock()

	sum := crc32c(payload)
	hdr := encodeRecordHeader(key, uint32(len(payload)), sum)
	if s.opts.Faults.NextDiskAppendCorrupt() && len(payload) > 0 {
		// Bit rot after checksumming: the record lands structurally valid
		// but its payload no longer matches its checksum.
		payload[len(payload)/2] ^= 0x40
	}
	if _, err := seg.f.WriteAt(hdr[:], off); err != nil {
		s.countDrop(err)
		return err
	}
	if _, err := seg.f.WriteAt(payload, off+recordHeaderSize); err != nil {
		s.countDrop(err)
		return err
	}
	recLen := recordHeaderSize + int64(len(payload))

	s.mu.Lock()
	seg.size += recLen
	s.bytes += recLen
	s.tick++
	seg.lastUse = s.tick
	s.idx[key] = loc{seg: seg.id, off: off, len: uint32(len(payload)), sum: sum}
	s.spills++
	roll := seg.size >= s.opts.SegmentBytes
	if roll {
		seg.sealed = true
		s.active = nil
	}
	s.evictLocked()
	s.mu.Unlock()

	if roll {
		if err := seg.f.Sync(); err != nil {
			s.logf("store: sync seg %d: %v", seg.id, err)
		}
	}
	return nil
}

// sync fsyncs the active segment, then the directory, which holds the names
// of the segments created since the last sync; a rolled segment was fsynced
// as it rolled. Runs on the writer goroutine, or in Close once it has exited.
func (s *Store) sync() error {
	s.mu.Lock()
	active := s.active
	s.mu.Unlock()
	if active != nil {
		if err := active.f.Sync(); err != nil {
			return fmt.Errorf("store: sync seg %d: %w", active.id, err)
		}
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: sync %s: %w", s.dir, err)
	}
	defer d.Close()
	// Best effort: not every platform can fsync a directory.
	d.Sync()
	return nil
}

func (s *Store) countDrop(err error) {
	s.mu.Lock()
	s.spillsDropped++
	s.mu.Unlock()
	s.logf("store: append: %v", err)
}

func (s *Store) newSegmentLocked() (*segment, error) {
	id := s.nextSeg
	s.nextSeg++
	path := filepath.Join(s.dir, segmentName(id))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	seg := &segment{id: id, f: f}
	s.segs[id] = seg
	return seg, nil
}

// evictLocked deletes LRU sealed segments until the byte budget holds. The
// active segment is never evicted.
func (s *Store) evictLocked() {
	if s.opts.Budget <= 0 {
		return
	}
	for s.bytes > s.opts.Budget {
		var victim *segment
		for _, seg := range s.segs {
			if !seg.sealed {
				continue
			}
			if victim == nil || seg.lastUse < victim.lastUse {
				victim = seg
			}
		}
		if victim == nil {
			return
		}
		victim.f.Close()
		os.Remove(filepath.Join(s.dir, segmentName(victim.id)))
		for k, l := range s.idx {
			if l.seg == victim.id {
				delete(s.idx, k)
			}
		}
		s.bytes -= victim.size
		delete(s.segs, victim.id)
		s.segsEvicted++
	}
}

func segmentName(id uint32) string { return fmt.Sprintf("seg-%06d.seg", id) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32c is the record header and payload digest: CRC32C, hardware-accelerated by
// hash/crc32 where the CPU allows. serve.Digest is the same function, which
// is what lets a frame adopt the digest its record was verified against.
func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
