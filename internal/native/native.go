// Package native models the C/C++ layer beneath the preprocessing
// framework: the named native functions (kernels) that high-level transform
// operations actually execute, together with a per-kernel cost model.
//
// In the real system this layer is libjpeg, Pillow, libc, and libtorch
// reached through pybind11 — and the central difficulty the paper addresses
// is that hardware profilers see *only* this layer (function symbols), while
// framework-level tools see *only* transform names. We reproduce that
// information gap deliberately:
//
//   - transforms execute work by issuing kernel Calls through an Engine;
//   - the Engine converts calls to durations via the cost model and, when a
//     profiling session is attached, records per-thread invocation timelines;
//   - the hardware-profiler simulation (package hwsim) observes ONLY kernel
//     symbols and timelines — never transform names;
//   - the ground-truth transform→kernel mapping is available to tests via
//     each transform's Kernels, letting the repository *validate* LotusMap's reconstruction
//     quality, something the paper could only argue qualitatively.
package native

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Arch selects the simulated CPU vendor. Some kernels resolve to different
// symbols (or exist at all) only on one vendor, mirroring Table I's
// Intel-specific and AMD-specific rows.
type Arch int

const (
	Intel Arch = iota
	AMD
)

func (a Arch) String() string {
	if a == AMD {
		return "amd"
	}
	return "intel"
}

// WorkClass coarsely classifies a kernel's bottleneck, which the hardware
// model uses to scale contention effects.
type WorkClass int

const (
	// Compute kernels scale with core count and suffer little from memory
	// contention (DCT, entropy coding).
	Compute WorkClass = iota
	// Memory kernels are bandwidth-bound and stretch under concurrency
	// (memcpy, memset, unpack).
	Memory
	// Mixed kernels sit in between (resampling, color conversion).
	Mixed
)

func (w WorkClass) String() string {
	switch w {
	case Compute:
		return "compute"
	case Memory:
		return "memory"
	case Mixed:
		return "mixed"
	}
	return "unknown"
}

// Kernel describes one native function and its cost model. Counter rates are
// per byte processed; the hwsim package derives PMU events from them.
type Kernel struct {
	// Name is the logical kernel id used by transform code, e.g. "decode_mcu".
	Name string
	// Symbol is the linker symbol a profiler would report. Often equals Name
	// but vendor-specific kernels differ (e.g. "__memcpy_avx_unaligned_erms").
	Symbol string
	// Library is the shared object the symbol lives in.
	Library string
	// Class is the bottleneck classification.
	Class WorkClass
	// CyclesPerByte converts bytes processed to unloaded core cycles.
	CyclesPerByte float64
	// InstrPerByte converts bytes processed to retired instructions.
	InstrPerByte float64
	// L1MissPerKB / LLCMissPerKB are cache-miss rates per kilobyte.
	L1MissPerKB  float64
	LLCMissPerKB float64
	// FrontEndBound is the unloaded fraction of pipeline slots stalled on
	// instruction supply.
	FrontEndBound float64
	// DRAMBound is the unloaded fraction of cycles stalled on local DRAM.
	DRAMBound float64
	// Arch restricts the kernel to one vendor; nil means both.
	Archs []Arch
}

// availableOn reports whether the kernel exists on the given architecture.
func (k *Kernel) availableOn(a Arch) bool {
	return len(k.Archs) == 0 || slices.Contains(k.Archs, a)
}

// Call is one kernel invocation request issued by a transform.
type Call struct {
	Kernel string
	Bytes  int
}

// Invocation is a recorded kernel execution on a thread timeline.
type Invocation struct {
	Kernel *Kernel
	Thread int
	Start  time.Time
	Dur    time.Duration
	Bytes  int
	// Active is the number of concurrently working threads sampled when the
	// invocation began; the hardware model scales contention effects from it.
	Active int
}

// End returns the invocation's end time.
func (inv *Invocation) End() time.Time { return inv.Start.Add(inv.Dur) }

// The simulated processor: the paper's testbed, a dual-socket 3.2 GHz Xeon
// E5-2667 with 32 logical cores. The hardware model in package hwsim reads
// the clock and the core count too.
const (
	FreqGHz float64 = 3.2
	Cores           = 32
	// memContention is how much Memory-class kernels stretch per additional
	// concurrently active worker (fraction per worker). It is calibrated so
	// that scaling the IC pipeline from 8 to 28 data loaders inflates total
	// preprocessing CPU time by roughly the +53% Figure 6(b) reports.
	memContention float64 = 0.06
	// smtPenalty is how much all kernels stretch once active workers exceed
	// the cores.
	smtPenalty float64 = 0.8
)

// Engine executes kernel calls under a cost model, tracks concurrency, and
// records invocation timelines for attached profiling sessions.
type Engine struct {
	arch Arch
	reg  map[string]*Kernel

	mu     sync.Mutex
	active int
	rec    *Recording
}

// NewEngine builds an engine with the standard kernel inventory for arch.
func NewEngine(arch Arch) *Engine {
	e := &Engine{arch: arch, reg: make(map[string]*Kernel)}
	for _, k := range Inventory() {
		if k.availableOn(arch) {
			kc := k // copy
			e.reg[k.Name] = &kc
		}
	}
	return e
}

// Arch returns the engine's simulated vendor.
func (e *Engine) Arch() Arch { return e.arch }

// Kernel looks up a kernel by logical name. ok is false when the kernel does
// not exist on this architecture.
func (e *Engine) Kernel(name string) (*Kernel, bool) {
	k, ok := e.reg[name]
	return k, ok
}

// BeginWork marks a worker thread as actively preprocessing; returns the
// concurrency level including this worker. EndWork undoes it.
func (e *Engine) BeginWork() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.active++
	return e.active
}

// EndWork marks the end of a worker's active region.
func (e *Engine) EndWork() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.active == 0 {
		panic("native: EndWork without BeginWork")
	}
	e.active--
}

// Duration computes the modeled duration of a call under the given
// concurrency. It is exported so the experiment harness can reason about
// unloaded costs.
func (e *Engine) Duration(k *Kernel, bytes, active int) time.Duration {
	cycles := k.CyclesPerByte * float64(bytes)
	stretch := 1.0
	if k.Class != Compute && active > 1 {
		stretch += memContention * float64(active-1)
	}
	if active > Cores {
		over := float64(active-Cores) / float64(Cores)
		stretch += smtPenalty * over
	}
	ns := cycles * stretch / FreqGHz
	return time.Duration(ns)
}

// Exec runs a sequence of calls on the thread th starting at the thread's
// current cursor. It returns the total modeled duration; the caller is
// responsible for advancing simulated time (or actually burning CPU) by this
// amount. Unknown kernels panic: a transform referencing a kernel absent on
// this architecture is a programming error.
func (e *Engine) Exec(th *Thread, calls []Call) time.Duration {
	e.mu.Lock()
	active := e.active
	if active == 0 {
		active = 1
	}
	rec := e.rec
	e.mu.Unlock()

	var total time.Duration
	for _, c := range calls {
		k, ok := e.reg[c.Kernel]
		if !ok {
			panic(fmt.Sprintf("native: kernel %q not available on %s", c.Kernel, e.arch))
		}
		d := e.Duration(k, c.Bytes, active)
		if rec != nil {
			rec.add(Invocation{
				Kernel: k,
				Thread: th.ID,
				Start:  th.Cursor,
				Dur:    d,
				Bytes:  c.Bytes,
				Active: active,
			})
		}
		th.Cursor = th.Cursor.Add(d)
		total += d
	}
	return total
}

// Attach installs a recording; subsequent Exec calls append invocations to
// it. Returns the recording. Attaching replaces any previous recording.
func (e *Engine) Attach(rec *Recording) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rec = rec
}

// Detach stops recording.
func (e *Engine) Detach() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rec = nil
}

// Thread carries a per-worker timeline cursor. The pipeline synchronizes
// Cursor with the simulated clock at the start of each operation so recorded
// invocations line up with trace timestamps.
type Thread struct {
	ID     int
	Cursor time.Time
}

// Recording accumulates invocations grouped per thread, each thread's list
// naturally sorted by start time (cursors only move forward).
type Recording struct {
	mu      sync.Mutex
	threads map[int][]Invocation
}

// NewRecording creates an empty recording.
func NewRecording() *Recording {
	return &Recording{threads: make(map[int][]Invocation)}
}

func (r *Recording) add(inv Invocation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.threads[inv.Thread] = append(r.threads[inv.Thread], inv)
}

// Threads returns the recorded thread IDs in ascending order.
func (r *Recording) Threads() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.threads))
	for id := range r.threads {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Timeline returns the invocations recorded for one thread, in start order.
func (r *Recording) Timeline(thread int) []Invocation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Invocation(nil), r.threads[thread]...)
}

// Len returns the total number of recorded invocations.
func (r *Recording) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, t := range r.threads {
		n += len(t)
	}
	return n
}
