package trace

import (
	"sort"
	"sync"
	"sync/atomic"

	"lotus/internal/pipeline"
)

// Ring is a bounded, concurrency-safe in-memory recorder of the most recent
// LotusTrace records. Where Tracer streams formatted records to a writer and
// keeps nothing, Ring keeps the records themselves (dropping the oldest once
// full), which is what live observability needs: the preprocessing service's
// /trace endpoint snapshots a Ring and exports it as Chrome Trace JSON while
// the pipeline is still running.
//
// The ring is striped: a global atomic sequence counter assigns each Add a
// slot round-robin across up to maxRingStripes independently locked
// sub-rings, so concurrent sessions' hook storms contend on an atomic
// increment plus one short per-stripe lock instead of one global mutex —
// Add was a cross-session serialization point when every connected client's
// pipeline hooks funneled into the shared server ring. The stripe count is
// the largest power of two <= min(maxRingStripes, capacity) that divides
// capacity, so the round-robin window aligns with the stripe buffers and
// retention stays exactly the most recent `capacity` records, as the
// single-lock ring kept. Snapshot merges the stripes by sequence number,
// preserving exact insertion order.
type Ring struct {
	seq     atomic.Int64 // next global sequence number == records ever added
	stripes []ringStripe
}

// maxRingStripes bounds the stripe count; 8 keeps per-stripe buffers large
// while covering far more concurrent sessions than a node realistically
// traces at once.
const maxRingStripes = 8

// ringStripe is one independently locked sub-ring. Each record carries its
// global sequence number so Snapshot can restore total order.
type ringStripe struct {
	mu   sync.Mutex
	buf  []Record
	seqs []int64
	next int  // write position
	full bool // buf has wrapped at least once
	// Pad stripes apart so neighboring locks do not share a cache line.
	_ [64]byte
}

// NewRing returns a ring keeping the most recent capacity records
// (capacity <= 0 is treated as 1).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1
	}
	n := 1
	for n*2 <= maxRingStripes && n*2 <= capacity {
		n *= 2
	}
	for n > 1 && capacity%n != 0 {
		n >>= 1
	}
	r := &Ring{stripes: make([]ringStripe, n)}
	per := capacity / n
	for i := range r.stripes {
		r.stripes[i].buf = make([]Record, per)
		r.stripes[i].seqs = make([]int64, per)
	}
	return r
}

// Add records one entry, evicting the oldest in its stripe if full.
func (r *Ring) Add(rec Record) {
	seq := r.seq.Add(1) - 1
	s := &r.stripes[int(seq)&(len(r.stripes)-1)]
	s.mu.Lock()
	s.buf[s.next] = rec
	s.seqs[s.next] = seq
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
	s.mu.Unlock()
}

// Snapshot returns the retained records, oldest first. The slice is a copy.
// Stripes are read one at a time, so records added concurrently with the
// snapshot may or may not appear — fine for live observability, where the
// ring is a moving window anyway.
type seqRecord struct {
	seq int64
	rec Record
}

func (r *Ring) Snapshot() []Record {
	all := make([]seqRecord, 0, r.Len())
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		n := s.next
		if s.full {
			n = len(s.buf)
		}
		for j := 0; j < n; j++ {
			all = append(all, seqRecord{seq: s.seqs[j], rec: s.buf[j]})
		}
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Record, len(all))
	for i, sr := range all {
		out[i] = sr.rec
	}
	return out
}

// Total reports how many records have ever been added (including evicted
// ones).
func (r *Ring) Total() int64 {
	return r.seq.Load()
}

// Len reports how many records are currently retained.
func (r *Ring) Len() int {
	n := 0
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		if s.full {
			n += len(s.buf)
		} else {
			n += s.next
		}
		s.mu.Unlock()
	}
	return n
}

// Hooks returns pipeline instrumentation callbacks that record into the
// ring — the in-memory analogue of Tracer.Hooks. A live ring models no
// per-record emission cost.
func (r *Ring) Hooks() *pipeline.Hooks { return hooks(r.Add, 0) }

// Collector keeps every record in memory, in the order the hooks deliver
// them: the unbounded sibling of Ring, for runs that want an analysis but no
// log. Like Ring it models no per-record emission cost.
type Collector struct {
	mu      sync.Mutex
	records []Record
}

func (c *Collector) add(r Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.records = append(c.records, r)
}

// Hooks returns pipeline instrumentation callbacks that record into c.
func (c *Collector) Hooks() *pipeline.Hooks { return hooks(c.add, 0) }

// Records returns the records collected so far, oldest first.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.records
}
