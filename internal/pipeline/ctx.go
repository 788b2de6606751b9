package pipeline

import (
	"time"

	"lotus/internal/clock"
	"lotus/internal/faultinject"
	"lotus/internal/native"
	"lotus/internal/rng"
)

// Mode selects how transforms execute.
type Mode int

const (
	// Simulated: samples carry metadata only; work costs come from the
	// native cost model and advance virtual time. All characterization
	// experiments run simulated.
	Simulated Mode = iota
	// RealData: samples carry actual pixels; transforms run the real
	// kernels from package imaging and elapsed time is genuine wall time.
	RealData
)

// Ctx is the per-worker execution context threaded through transforms.
type Ctx struct {
	// Proc is the clock proc the worker runs under.
	Proc clock.Proc
	// Engine executes native kernel calls (may be nil in RealData mode).
	Engine *native.Engine
	// Thread is this worker's native timeline cursor.
	Thread *native.Thread
	// Mode selects simulated or real execution.
	Mode Mode
	// Seed is the run-level randomness root.
	Seed int64
	// Epoch is mixed into the per-sample random streams (SampleRNG, OpRNG)
	// through epochSalt — the single seam that makes augmented bytes vary
	// across epochs while staying schedule-independent. It does NOT feed the
	// epoch batch plan; that derives from EpochSeed so plans keep their
	// historical shuffles.
	Epoch int
	// WorkScale multiplies simulated work durations; profiler-overhead
	// models (Table III) use it to represent sampling interference.
	WorkScale float64
	// MaterializeDim caps synthesized image/volume resolution in RealData
	// mode.
	MaterializeDim int
	// Faults is the deterministic fault-injection layer consulted by the
	// storage-facing transforms (nil injects nothing).
	Faults *faultinject.Injector
	// SampleCache, when non-nil, serves materialized post-prefix samples to
	// Compose.Apply so prefix hits skip decode entirely. PrefixFP is the
	// prefix fingerprint the cache keys entries under.
	SampleCache *SampleCache
	PrefixFP    uint64
	// Abort, when non-nil, is closed once the epoch this worker serves is
	// being torn down: the serving layer sets it from the session's context.
	// A worker parked on another session's in-flight cache entry, or
	// sleeping out a real-clock fault stall, selects on it, so a severed
	// session never waits out somebody else's computation.
	Abort <-chan struct{}

	// collates is set by the one kind of caller that runs Collate.RunInto
	// over every sample this Ctx produces, a BatchWorker: only for it may a
	// plan leave its tensor tail to the collate (rewrite.go).
	collates bool

	// rngSample and rngOp are per-worker scratch generators reused by OpRNG.
	// math/rand's source is ~5 KB; building one per sample per op used to be
	// the largest heap cost of a simulated epoch. opRoot is the one value
	// OpRNG ever draws from the sample stream seeded with opRootSeed.
	rngSample  *rng.Stream
	rngOp      *rng.Stream
	opRootSeed int64
	opRoot     int64
	// callScratch is the reusable kernel-call buffer handed out by Calls.
	callScratch []native.Call
	// blobScratch is the reusable buffer the Loader reads a sample's encoded
	// file into; it holds one blob, valid until the worker's next read.
	blobScratch []byte
	// readFree is when the worker's modeled storage device finishes the
	// reads issued so far in the current batch (ReadBlob). BatchWorker.Run
	// sets it to the batch's start and clears it at the end; zero means no
	// batch is running and a read is issued when asked.
	readFree time.Time
}

// Real reports whether transforms should manipulate actual payloads.
func (c *Ctx) Real() bool { return c.Mode == RealData }

// epochSalt folds the epoch into a seed. This is the one documented seam
// through which epochs change per-sample randomness: every random stream
// XORs it in, so augmented bytes differ across epochs yet remain a pure
// function of (seed, epoch, index) — identical under any worker count or
// dispatch schedule. Epoch 0 salts to zero, preserving every historical
// single-epoch random sequence bit for bit.
func epochSalt(epoch int) int64 {
	if epoch == 0 {
		return 0
	}
	// Golden-ratio odd multiplier; computed in uint64 because the constant
	// exceeds int64 range.
	return int64(uint64(epoch) * 0x9E3779B97F4A7C15)
}

// SampleRNG returns the deterministic randomness stream for one sample.
// Derivation from (seed, epoch, index) — not from the worker — keeps a
// sample's random transform decisions identical regardless of which worker
// processes it or how many workers exist.
func (c *Ctx) SampleRNG(index int) *rng.Stream {
	return rng.New(c.Seed^epochSalt(c.Epoch)^int64(index)*2654435761, "sample")
}

// OpRNG returns the op's child of the sample stream,
// rng.New(SampleRNG(index).Int63(), name), without allocating either
// generator. The child's seed is the first value of the freshly seeded
// sample stream, so that value is kept per sample seed and the sample stream
// (607 words of state) is reseeded once per sample, not once per op. The returned stream aliases worker scratch state: it is valid
// until the next OpRNG call on this Ctx, which matches how transforms use it
// (draw parameters, then discard). A Ctx is per-worker and workers are
// single-threaded, so there is no sharing.
func (c *Ctx) OpRNG(index int, name string) *rng.Stream {
	seed := c.Seed ^ epochSalt(c.Epoch) ^ int64(index)*2654435761
	if c.rngSample == nil {
		c.rngSample = rng.NewFromSeed(0)
		c.rngOp = rng.NewFromSeed(0)
		c.opRootSeed = ^seed // nothing kept yet
	}
	if seed != c.opRootSeed {
		c.rngSample.Reseed(seed, "sample")
		c.opRootSeed, c.opRoot = seed, c.rngSample.Int63()
	}
	c.rngOp.Reseed(c.opRoot, name)
	return c.rngOp
}

// Calls returns the worker's reusable kernel-call scratch buffer, emptied.
// Build the op's call list with append and execute it with WorkCalls; the
// buffer is retained across ops, so steady-state simulated transforms issue
// no allocations at all.
func (c *Ctx) Calls() []native.Call {
	if c.callScratch == nil {
		c.callScratch = make([]native.Call, 0, 16)
	}
	return c.callScratch[:0]
}

// Work executes native kernel calls in simulated mode: it aligns the native
// timeline cursor with the clock, records the invocations (if a profiling
// session is attached), and advances virtual time by the modeled duration.
// In RealData mode it is a no-op — the caller performs the actual kernels
// and real time elapses by itself.
func (c *Ctx) Work(calls ...native.Call) {
	c.WorkCalls(calls)
}

// WorkCalls is Work for a call list built in the Calls scratch buffer. The
// (possibly grown) buffer is adopted back into the Ctx for the next op —
// the engine records invocations by value and never retains the slice.
func (c *Ctx) WorkCalls(calls []native.Call) {
	if cap(calls) > cap(c.callScratch) {
		c.callScratch = calls[:0]
	}
	if c.Mode == RealData || c.Engine == nil {
		return
	}
	c.Thread.Cursor = c.Proc.Now()
	d := c.Engine.Exec(c.Thread, calls)
	if c.WorkScale > 0 && c.WorkScale != 1 {
		d = time.Duration(float64(d) * c.WorkScale)
	}
	c.Proc.Sleep(d)
}

// ReadBlob advances time for the blob-store read of one sample, consulting
// the fault injector first: an injected slow-read stall lengthens the read,
// and an injected read error panics after it — surfacing through the
// worker's recover as a dataset exception, the way PyTorch re-raises a
// worker's IOError in the main process. It returns the read's modeled
// latency (d plus any stall) and the part of it the worker waited out: what
// remained of the read when the worker asked for it. A late wake-up (timer
// oversleep, a busy core) is not counted; it is not the device's.
//
// In RealData mode a batch's reads are issued together when the batch
// starts (BatchWorker.Run), on a per-worker serial device: the device is
// free from readFree on, so a read of latency m is due at readFree + m, and
// the worker waits only for whatever of it remains. A file's modeled
// latency thus elapses while earlier samples decode, and the batch still
// cannot finish before its start plus the sum of its reads. On a simulated
// clock real kernels take no virtual time, so every wait there is the whole
// latency (less any hook log cost charged since the previous read), as when
// reads were issued one at a time. A stream batch (IterableLoader) is a
// batch too. Outside a batch (a direct GetItem) and in Simulated mode a read
// is issued when asked and waited in full (IO).
func (c *Ctx) ReadBlob(index int, d time.Duration) (modeled, waited time.Duration) {
	stall, err := c.Faults.ReadFault(index)
	modeled = d + stall
	if c.Mode == RealData && !c.readFree.IsZero() {
		due := c.readFree.Add(modeled)
		c.readFree = due
		waited = max(due.Sub(c.Proc.Now()), 0)
		clock.SleepUntil(c.Proc, due)
	} else {
		c.IO(modeled)
		waited = modeled
	}
	if err != nil {
		panic(err)
	}
	return modeled, waited
}

// IO advances time for a storage read issued when asked. I/O wait is
// off-CPU, so it is not recorded on the native timeline (a hardware profiler
// would not attribute it to a user-space function).
func (c *Ctx) IO(d time.Duration) {
	if c.Mode == RealData {
		// Real mode still models storage latency: the synthetic blobs live
		// in memory, but a Loader that never waits would make every real
		// pipeline preprocessing-bound in an unrepresentative way.
		c.Proc.Sleep(d)
		return
	}
	if c.WorkScale > 0 && c.WorkScale != 1 {
		d = time.Duration(float64(d) * c.WorkScale)
	}
	c.Proc.Sleep(d)
}
