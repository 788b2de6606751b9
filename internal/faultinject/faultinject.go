// Package faultinject is the seeded, deterministic fault-injection layer
// threaded through the substrate seams: blob-store reads (the internal/data
// I/O model consulted by the pipeline loaders), per-sample worker execution
// and per-batch engine stalls (internal/pipeline), and the serving wire
// (internal/serve).
//
// Two decision families keep every injected schedule reproducible:
//
//   - Index-keyed decisions (read errors, read stalls, worker panics, batch
//     stalls) are pure functions of (Seed, class, key). The same sample fails
//     no matter which worker picks it up, how many workers exist, or how the
//     scheduler interleaves them — so a chaos run's failure set is computable
//     up front and skip accounting can be asserted exactly.
//
//   - Sequence-keyed decisions (wire drop / truncate / corrupt) fire on the
//     Nth event of a monotonic per-injector counter and then never again:
//     a transient wire fault that a client retry must mask. Because the
//     counter keeps advancing across reconnects, the retried epoch does not
//     re-hit the same fault.
//
// The zero Spec injects nothing, and every Injector method is safe on a nil
// receiver, so production call sites need no fault-injection branches.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrInjectedRead tags injected blob-store read failures so tests and error
// policies can distinguish them from genuine bugs.
var ErrInjectedRead = errors.New("faultinject: injected blob read error")

// Spec configures one injector. Index-keyed classes select roughly one key in
// Nth via a seeded hash (0 disables the class); wire classes name the exact
// 1-based frame the fault fires on.
type Spec struct {
	// Seed drives every hash-keyed decision.
	Seed int64

	// ReadErrorNth: the blob read for a hash-selected ~1/Nth of sample
	// indices fails with ErrInjectedRead (surfaced as a dataset exception,
	// like PyTorch re-raising a worker's IOError).
	ReadErrorNth int
	// ReadStallNth / ReadStall: the blob read for a hash-selected ~1/Nth of
	// sample indices takes ReadStall longer (a slow replica or a cold cache).
	ReadStallNth int
	ReadStall    time.Duration

	// PanicNth: a hash-selected ~1/Nth of sample indices panic inside the
	// worker loop (corrupt record / transform bug).
	PanicNth int
	// StallNth / WorkerStall: a hash-selected ~1/Nth of batch IDs stall the
	// worker after preprocessing (GC pause, CPU contention, engine hiccup).
	StallNth    int
	WorkerStall time.Duration

	// SlowWorkerID / SlowWorkerStall: worker SlowWorkerID-1 stalls
	// SlowWorkerStall after preprocessing every batch it handles (1-based so
	// the zero Spec stays inert; SlowWorkerID 1 slows worker 0). Unlike the
	// batch-keyed StallNth, this models a persistently degraded worker — a
	// throttled core, a noisy neighbor — so straggler-mitigation tests get a
	// guaranteed, schedule-independent laggard instead of a seed-lucky one.
	SlowWorkerID    int
	SlowWorkerStall time.Duration

	// DropFrame: the server closes the connection instead of writing the Nth
	// outgoing batch frame (1-based; 0 disables).
	DropFrame int
	// TruncateFrame: the Nth outgoing batch frame is cut mid-payload and the
	// connection failed, so the client sees an unexpected EOF.
	TruncateFrame int
	// CorruptFrame: the Nth outgoing batch frame has one payload byte
	// flipped on the wire while its header keeps the clean payload's CRC32C,
	// so the client drops the frame as ErrCorruptFrame before decoding it.
	CorruptFrame int

	// CorruptDiskAppend: the Nth record appended to the persistent disk
	// cache has one payload byte flipped after its checksum is taken — bit
	// rot that the store must catch at read time (checksum mismatch → clean
	// miss and recompute, never stale bytes served).
	CorruptDiskAppend int
	// DiskStall: the disk-cache writer blocks before its Nth append until the
	// store closes — a hung disk. Spills queue behind it up to the backlog
	// bound and are then dropped; serving must go on without them.
	DiskStall int
}

// WireAction is the fault applied to one outgoing wire frame.
type WireAction int

const (
	WireNone WireAction = iota
	WireDrop
	WireTruncate
	WireCorrupt
)

// Counts reports how many faults an injector has fired, per class.
type Counts struct {
	ReadErrors   int64
	ReadStalls   int64
	Panics       int64
	WorkerStalls int64
	WireFaults   int64
	DiskFaults   int64
}

// Total sums every class.
func (c Counts) Total() int64 {
	return c.ReadErrors + c.ReadStalls + c.Panics + c.WorkerStalls +
		c.WireFaults + c.DiskFaults
}

// Injector makes fault decisions for one run. Methods are safe for
// concurrent use and on a nil receiver (nil injects nothing).
type Injector struct {
	spec Spec

	frames       atomic.Int64 // outgoing wire frames observed
	appends      atomic.Int64 // disk-cache records appended
	writerTurns  atomic.Int64 // disk-cache appends the writer started
	readErrors   atomic.Int64
	readStalls   atomic.Int64
	panics       atomic.Int64
	workerStalls atomic.Int64
	wireFaults   atomic.Int64
	diskFaults   atomic.Int64
}

// New builds an injector from spec. A zero spec (or a nil *Injector) injects
// nothing.
func New(spec Spec) *Injector { return &Injector{spec: spec} }

// Counts snapshots the per-class fired-fault counters.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return Counts{
		ReadErrors:   in.readErrors.Load(),
		ReadStalls:   in.readStalls.Load(),
		Panics:       in.panics.Load(),
		WorkerStalls: in.workerStalls.Load(),
		WireFaults:   in.wireFaults.Load(),
		DiskFaults:   in.diskFaults.Load(),
	}
}

// selected is the pure decision function behind every index-keyed class:
// an FNV-1a style mix of (seed, class, key) modulo nth. It depends on
// nothing but its arguments, so decisions are identical across workers,
// schedules, and processes.
func selected(seed int64, class byte, key int64, nth int) bool {
	if nth <= 0 {
		return false
	}
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(seed))
	h ^= uint64(class)
	h *= prime64
	mix(uint64(key))
	return h%uint64(nth) == 0
}

// Class tags for the hash mix; changing one changes that class's selection
// set, so they are frozen.
const (
	classReadError = 'R'
	classReadStall = 'S'
	classPanic     = 'P'
	classStall     = 'B'
)

// WouldReadError reports whether the blob read for sample index is selected
// to fail, without firing counters — the prediction used for exact skip
// accounting.
func (in *Injector) WouldReadError(index int) bool {
	if in == nil {
		return false
	}
	return selected(in.spec.Seed, classReadError, int64(index), in.spec.ReadErrorNth)
}

// WouldPanic reports whether sample index is selected to panic in the
// worker, without firing counters.
func (in *Injector) WouldPanic(index int) bool {
	if in == nil {
		return false
	}
	return selected(in.spec.Seed, classPanic, int64(index), in.spec.PanicNth)
}

// ReadFault is consulted by the pipeline loaders before each blob read. It
// returns an extra stall to add to the modeled storage delay and, when the
// read is selected to fail, an ErrInjectedRead-wrapped error the loader
// surfaces as a dataset exception.
func (in *Injector) ReadFault(index int) (stall time.Duration, err error) {
	if in == nil {
		return 0, nil
	}
	if selected(in.spec.Seed, classReadStall, int64(index), in.spec.ReadStallNth) {
		stall = in.spec.ReadStall
		in.readStalls.Add(1)
	}
	if in.WouldReadError(index) {
		in.readErrors.Add(1)
		return stall, fmt.Errorf("%w: sample %d", ErrInjectedRead, index)
	}
	return stall, nil
}

// SamplePanic reports whether the worker should panic on sample index.
func (in *Injector) SamplePanic(index int) bool {
	if in == nil {
		return false
	}
	if in.WouldPanic(index) {
		in.panics.Add(1)
		return true
	}
	return false
}

// BatchStall returns the extra stall charged to the worker after it finishes
// preprocessing batchID (0 when the batch is not selected).
func (in *Injector) BatchStall(batchID int) time.Duration {
	if in == nil {
		return 0
	}
	if in.spec.WorkerStall > 0 &&
		selected(in.spec.Seed, classStall, int64(batchID), in.spec.StallNth) {
		in.workerStalls.Add(1)
		return in.spec.WorkerStall
	}
	return 0
}

// WorkerSlowdown returns the per-batch stall for a persistently degraded
// worker (0 when this worker is healthy or the class is disabled). Counted
// with the WorkerStalls class: both are worker-execution stalls, differing
// only in what selects them.
func (in *Injector) WorkerSlowdown(workerID int) time.Duration {
	if in == nil {
		return 0
	}
	if in.spec.SlowWorkerStall > 0 && in.spec.SlowWorkerID == workerID+1 {
		in.workerStalls.Add(1)
		return in.spec.SlowWorkerStall
	}
	return 0
}

// NextWireAction advances the outgoing-frame counter and returns the fault
// to apply to this frame. Each configured wire fault fires exactly once (on
// its configured frame number) over the injector's lifetime.
func (in *Injector) NextWireAction() WireAction {
	if in == nil {
		return WireNone
	}
	n := in.frames.Add(1)
	switch {
	case in.spec.DropFrame > 0 && n == int64(in.spec.DropFrame):
		in.wireFaults.Add(1)
		return WireDrop
	case in.spec.TruncateFrame > 0 && n == int64(in.spec.TruncateFrame):
		in.wireFaults.Add(1)
		return WireTruncate
	case in.spec.CorruptFrame > 0 && n == int64(in.spec.CorruptFrame):
		in.wireFaults.Add(1)
		return WireCorrupt
	}
	return WireNone
}

// NextDiskAppendCorrupt advances the disk-append counter and reports whether
// this record's payload should be bit-flipped after checksumming. Fires
// exactly once, on the configured 1-based append number.
func (in *Injector) NextDiskAppendCorrupt() bool {
	return in != nil && in.nextDiskFault(&in.appends, in.spec.CorruptDiskAppend)
}

// NextDiskStall advances the writer's append counter and reports whether the
// writer should block before this append until its store closes. Fires
// exactly once, on the configured 1-based append number.
func (in *Injector) NextDiskStall() bool {
	return in != nil && in.nextDiskFault(&in.writerTurns, in.spec.DiskStall)
}

// nextDiskFault advances counter and reports (and counts) whether this is the
// nth event; nth 0 disables the class.
func (in *Injector) nextDiskFault(counter *atomic.Int64, nth int) bool {
	if n := counter.Add(1); nth <= 0 || n != int64(nth) {
		return false
	}
	in.diskFaults.Add(1)
	return true
}

// FailingBatches returns the positions (in plan order) of batches containing
// at least one sample selected to read-error or panic — exactly the batches
// a SkipBatch run must report in Iterator.Skipped, and a FailEpoch run must
// fail on the first of.
func (in *Injector) FailingBatches(plan [][]int) []int {
	if in == nil {
		return nil
	}
	var out []int
	for pos, indices := range plan {
		for _, idx := range indices {
			if in.WouldReadError(idx) || in.WouldPanic(idx) {
				out = append(out, pos)
				break
			}
		}
	}
	return out
}
