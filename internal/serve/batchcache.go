package serve

import (
	"lotus/internal/cache"
	"lotus/internal/store"
)

// BatchCache is the server-wide materialized-batch cache: canonical encoded
// Batch frame bytes keyed by (spec fingerprint, epoch, global batch ID).
// Because the epoch plan is deterministic and the encoding canonical, every
// session that needs a given key needs the *same bytes* — so the first
// requester computes the frame once (single-flight) and everyone else either
// hits the ready entry or blocks on the in-flight computation. This is what
// turns the N-clients serving plateau into fan-out: N ranks, cluster ShardReq
// routes, and replication fetches share one preprocessing pass per batch.
//
// The state machine, refcounting and LRU byte budget are cache.SingleFlight's;
// this file adds only the key and the disk tier underneath.
type BatchCache = cache.SingleFlight[BatchKey, *Frame]

// BatchKey identifies one materialized batch frame. Fingerprint pins the
// frame-determining spec parameters (SpecFingerprint), so a reconfigured
// server can never serve stale bytes out of a persisted or shared cache.
type BatchKey struct {
	Fingerprint uint64
	Epoch       int
	GlobalID    int
}

// NewBatchCache returns a cache bounded to budget bytes of frame payload,
// over the persistent store when disk is non-nil: a restarted (or sibling)
// server then serves previously produced frames byte-identical without
// recomputing — the tf.data-service cross-job reuse model over a Seneca-style
// SSD tier. The sample cache shares the same Store (one budget, one segment
// sequence); the Kind byte in the key keeps the namespaces disjoint.
func NewBatchCache(budget int64, disk *store.Store) *BatchCache {
	var tier cache.Tier[BatchKey, *Frame]
	if disk != nil {
		tier = diskBatchTier{disk}
	}
	return cache.New(budget, true, tier)
}

// diskBatchTier stores encoded batch frames in the persistent store as they
// are: the wire bytes are the record.
type diskBatchTier struct{ st *store.Store }

func diskBatchKey(k BatchKey) store.Key {
	return store.Key{Kind: store.KindBatch, FP: k.Fingerprint,
		A: uint64(k.Epoch), B: uint64(k.GlobalID)}
}

// Get reads one frame into a pooled buffer. The store verifies the record
// against its CRC32C — the frame's Digest, which the frame adopts instead of
// hashing the bytes again; on a miss (or corruption, degraded to a miss) the
// pooled buffer goes straight back to its pool.
func (t diskBatchTier) Get(key BatchKey) (*Frame, bool) {
	var box *[]byte
	_, digest, ok := t.st.GetDigest(diskBatchKey(key), func(n int) []byte {
		box = frameBufFor(n)
		*box = (*box)[:n]
		return *box
	})
	if !ok {
		if box != nil {
			frameBufPut(box)
		}
		return nil, false
	}
	return newFrame(box, digest), true
}

// Put dedups keys already on disk and copies the bytes before PutAsync
// returns; it waits only while the store's spill backlog is at its byte bound.
func (t diskBatchTier) Put(key BatchKey, f *Frame) {
	t.st.PutAsync(diskBatchKey(key), f.Bytes())
}
