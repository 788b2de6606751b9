package pipeline

import (
	"sync/atomic"

	"lotus/internal/cache"
	"lotus/internal/imaging"
	"lotus/internal/native"
	"lotus/internal/store"
	"lotus/internal/tensor"
)

// SampleCache is the split-point sample cache: materialized post-prefix
// samples keyed by (prefix fingerprint, dataset index). The prefix of a
// Compose — its maximal run of deterministic transforms, typically storage
// read + decode + deterministic resize — produces the same bytes for a given
// sample in every epoch and every session, so the first epoch materializes
// each sample once and epochs 2..N (and concurrent sessions on the same
// spec) re-run only the cheap random suffix. This is the layer below the
// materialized-batch cache: a batch-cache hit never reaches the pipeline at
// all; a batch-cache miss on an augmented spec turns into prefix hits plus a
// suffix recompute instead of a full decode.
//
// The single-flight state machine, refcounting and LRU byte budget are
// cache.SingleFlight's. What is this cache's own: the snapshot / restore pair
// (readers copy out, never alias), materialize, the rule that simulated
// clocks never wait on an in-flight prefix, and the snapshot codec between
// the memory entries and the disk tier.
type SampleCache struct {
	sf *cache.SingleFlight[SampleKey, *cachedSample]
}

// SampleKey identifies one materialized post-prefix sample. PrefixFP pins
// every byte-affecting parameter of the prefix (spec shape, mode,
// materialize cap, the prefix op list), so reconfigured pipelines can never
// share stale pixels. Epoch is deliberately absent: prefix bytes are
// epoch-independent, which is the entire point of the split.
type SampleKey struct {
	PrefixFP uint64
	Index    int
}

// cachedSample is an immutable snapshot of a post-prefix sample. The meta
// Sample carries the scalar fields with payload pointers nil'd; at most one
// of img/vol/ten holds the real payload (all nil in simulated mode, where
// samples are metadata plus a modeled size). Readers copy out, never alias:
// cached pixels are shared across workers and epochs, so handing out the
// backing buffer would let a random suffix mutate everyone's prefix.
type cachedSample struct {
	refs atomic.Int32
	meta Sample
	img  *imaging.Image
	vol  *imaging.Volume
	ten  *tensor.Tensor
	size int64
}

// snapshotSample clones a just-computed post-prefix sample into pooled
// buffers. The caller keeps its own working payload. The returned snapshot
// holds one reference, the caller's.
func snapshotSample(s Sample) *cachedSample {
	cs := &cachedSample{meta: s}
	cs.meta.Image, cs.meta.Volume, cs.meta.Tensor = nil, nil, nil
	switch {
	case s.Image != nil:
		cs.img = imaging.GetImage(s.Image.W, s.Image.H)
		copy(cs.img.Pix, s.Image.Pix)
		cs.size = int64(len(cs.img.Pix))
	case s.Volume != nil:
		cs.vol = imaging.GetVolume(s.Volume.D, s.Volume.H, s.Volume.W)
		copy(cs.vol.Vox, s.Volume.Vox)
		cs.size = int64(len(cs.vol.Vox)) * 4
	case s.Tensor != nil && !s.Tensor.IsMeta():
		cs.ten = s.Tensor.Clone()
		cs.size = int64(s.Tensor.Bytes())
	default:
		// Simulated sample: no payload, but the entry still occupies its
		// modeled footprint so eviction behaves like the real cache would.
		cs.size = int64(s.RawBytes())
	}
	cs.refs.Store(1)
	return cs
}

func (cs *cachedSample) Retain() { cs.refs.Add(1) }

// Size is the snapshot's charge against the cache's byte budget.
func (cs *cachedSample) Size() int64 { return cs.size }

func (cs *cachedSample) Release() {
	if cs.refs.Add(-1) != 0 {
		return
	}
	cs.img.Release()
	cs.vol.Release()
	cs.img, cs.vol, cs.ten = nil, nil, nil
}

// restore clones the snapshot out into fresh pooled buffers, charging the
// modeled copy cost in simulated mode. The result is owned by the caller
// exactly as if the prefix had just run.
func (cs *cachedSample) restore(ctx *Ctx) Sample {
	s := cs.meta
	switch {
	case cs.img != nil:
		im := imaging.GetImage(cs.img.W, cs.img.H)
		copy(im.Pix, cs.img.Pix)
		s.Image = im
	case cs.vol != nil:
		v := imaging.GetVolume(cs.vol.D, cs.vol.H, cs.vol.W)
		copy(v.Vox, cs.vol.Vox)
		s.Volume = v
	case cs.ten != nil:
		s.Tensor = cs.ten.Clone()
	}
	if !ctx.Real() {
		ctx.Work(native.Call{Kernel: "memcpy", Bytes: s.RawBytes()})
	}
	return s
}

// NewSampleCache returns a cache bounded to budget bytes of materialized
// sample payload, over the persistent store when disk is non-nil (a restart,
// or a sibling job on the same spec, then warm-starts instead of
// recomputing). blocking selects whether requesters may park on another
// worker's in-flight prefix: true only when the pipeline's procs run on the
// wall clock (real data or emulate-time serving); a simulated clock's procs
// must never block on channels the clock cannot see, so they compute the
// prefix privately instead (counted as bypassed).
func NewSampleCache(budget int64, blocking bool, disk *store.Store) *SampleCache {
	var tier cache.Tier[SampleKey, *cachedSample]
	if disk != nil {
		tier = diskSampleTier{disk}
	}
	return &SampleCache{sf: cache.New(budget, blocking, tier)}
}

// Stats returns a consistent copy of the counters.
func (sc *SampleCache) Stats() cache.Stats { return sc.sf.Stats() }

// diskSampleTier keeps sample snapshots in the persistent store through the
// snapshot codec.
type diskSampleTier struct{ st *store.Store }

func diskSampleKey(key SampleKey) store.Key {
	return store.Key{Kind: store.KindSample, FP: key.PrefixFP, A: uint64(key.Index)}
}

// Get restores a snapshot from disk. An undecodable record (despite the
// store's checksum, e.g. a codec version skew) is dropped from the disk
// index so it is recomputed and re-spilled instead of failing forever.
func (t diskSampleTier) Get(key SampleKey) (*cachedSample, bool) {
	raw, ok := t.st.Get(diskSampleKey(key), nil)
	if !ok {
		return nil, false
	}
	cs, err := decodeSnapshot(raw)
	if err != nil {
		t.st.Drop(diskSampleKey(key))
		return nil, false
	}
	return cs, true
}

// Put encodes only what the disk lacks; the store copies the bytes and
// queues the append, waiting only while its backlog is at its byte bound.
func (t diskSampleTier) Put(key SampleKey, cs *cachedSample) {
	if !t.st.Contains(diskSampleKey(key)) {
		t.st.PutAsync(diskSampleKey(key), encodeSnapshot(cs))
	}
}

// materialize returns the post-prefix sample for s, from the cache when
// possible: a hit, the disk tier's copy, or another worker's in-flight
// result is copied out; otherwise the prefix runs here — published if this
// worker won the claim, privately if it may not wait (simulated clock) or
// the wait timed out. A panic in a claimed prefix (an injected read error
// surfacing through ReadBlob, a poisoned dataset) abandons the claim before
// propagating, so waiters wake and retry instead of parking forever.
func (sc *SampleCache) materialize(ctx *Ctx, c *Compose, pid, batchID, split int, s Sample) Sample {
	key := SampleKey{PrefixFP: ctx.PrefixFP, Index: s.Index}
	var out Sample
	computed := false
	cs, err := sc.sf.Acquire(key, ctx.Abort, func() (*cachedSample, error) {
		out = c.applyOps(ctx, pid, batchID, s, c.Transforms[:split])
		computed = true
		return snapshotSample(out), nil
	})
	if err != nil {
		// The epoch was aborted while this worker was parked on another
		// session's prefix: finish the sample privately so the worker gets
		// back to its queue and the teardown's Drain is not held up.
		return c.applyOps(ctx, pid, batchID, s, c.Transforms[:split])
	}
	if !computed {
		out = cs.restore(ctx)
	}
	cs.Release()
	return out
}
