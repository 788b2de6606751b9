// Package clock provides the execution substrate shared by every simulated
// component in the repository: a Clock under which concurrent "procs"
// (workers, the main training loop, GPU devices) run, sleep, and synchronize.
//
// Two implementations exist:
//
//   - Real: procs are ordinary goroutines, Sleep is time.Sleep, and Now is
//     time.Now. Used by the runnable examples and by instrumentation-overhead
//     benchmarks, where wall-clock behaviour is the point.
//
//   - Sim: a deterministic cooperative virtual-time scheduler. Exactly one
//     proc executes at a time; when it blocks (Sleep or Cond.Wait) the
//     scheduler hands control to the next runnable proc, and advances virtual
//     time only when nothing is runnable. Given the same program and seed the
//     schedule is fully reproducible, and a multi-worker pipeline can be
//     characterized on a single-core host in milliseconds of wall time.
//
// Pipeline, GPU, and profiler code is written once against these interfaces;
// the mode is chosen by the caller.
package clock

import (
	"runtime"
	"sync"
	"time"
)

// Epoch is the virtual-time origin used by the simulated clock. Using a fixed
// origin keeps trace timestamps reproducible across runs.
var Epoch = time.Date(2024, time.January, 1, 0, 0, 0, 0, time.UTC)

// Proc is a handle held by each concurrently executing activity. All blocking
// must go through the Proc (Sleep) or through a Cond created by the same
// Clock; blocking on anything else stalls the simulated scheduler.
type Proc interface {
	// Name returns the name the proc was spawned with, e.g. "worker-3".
	Name() string
	// Now returns the current (real or virtual) time.
	Now() time.Time
	// Sleep blocks the proc for d. Negative or zero durations return
	// immediately.
	Sleep(d time.Duration)
	// Go spawns a sibling proc. The spawned proc keeps the Clock's Run alive
	// until it returns.
	Go(name string, fn func(p Proc))
}

// Cond is a condition variable tied to a Clock. The usage pattern is the
// classic one:
//
//	c.Lock()
//	for !predicate() {
//		c.Wait(p)
//	}
//	... mutate state ...
//	c.Broadcast()
//	c.Unlock()
//
// Wait must be called with the lock held; it atomically releases the lock,
// blocks until a Broadcast, and reacquires it. Broadcast must be called with
// the lock held. Procs must not call Sleep while holding a Cond lock.
type Cond interface {
	Lock()
	Unlock()
	Wait(p Proc)
	Broadcast()
}

// Clock creates procs and synchronization primitives in either the real or
// the simulated time domain.
type Clock interface {
	// Run spawns the root proc and blocks until it and every proc
	// transitively spawned from it have returned.
	Run(name string, fn func(p Proc))
	// NewCond returns a condition variable usable by this Clock's procs.
	NewCond() Cond
}

// ---------------------------------------------------------------------------
// Real clock
// ---------------------------------------------------------------------------

// realClock implements Clock over the operating system scheduler.
type realClock struct {
	wg sync.WaitGroup
}

// NewReal returns a Clock whose procs are plain goroutines in real time.
func NewReal() Clock { return &realClock{} }

func (c *realClock) Run(name string, fn func(p Proc)) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		fn(&realProc{name: name, clk: c})
	}()
	c.wg.Wait()
}

func (c *realClock) NewCond() Cond {
	rc := &realCond{}
	rc.cond = sync.NewCond(&rc.mu)
	return rc
}

// realCond wraps sync.Cond; Wait ignores the proc handle.
type realCond struct {
	mu   sync.Mutex
	cond *sync.Cond
}

func (c *realCond) Lock()      { c.mu.Lock() }
func (c *realCond) Unlock()    { c.mu.Unlock() }
func (c *realCond) Wait(Proc)  { c.cond.Wait() }
func (c *realCond) Broadcast() { c.cond.Broadcast() }

// sleepResolution is the shortest duration worth handing to the OS timer:
// below it, time.Sleep's per-call overshoot (about a millisecond on a
// coarse-timer host) dwarfs the requested pause.
const sleepResolution = time.Millisecond

// sleepForgiveness bounds how much oversleep is carried forward as credit. A
// scheduler stall should not let the proc skip pacing for seconds afterward.
const sleepForgiveness = 100 * time.Millisecond

type realProc struct {
	name string
	clk  *realClock
	// debt is requested-but-unslept pacing time. Each realProc belongs to
	// exactly one goroutine, so no locking.
	debt time.Duration
}

func (p *realProc) Name() string   { return p.name }
func (p *realProc) Now() time.Time { return time.Now() }

// Sleep paces the proc by d with sub-resolution requests coalesced: they
// accumulate into a debt, and only when the debt reaches the OS timer's
// resolution does the proc actually sleep it off, crediting any overshoot
// against future requests. Long-run pacing converges on the requested total
// — which is what emulate-mode serving and modeled I/O need — while a
// modeled pipeline's thousands of microsecond-scale charges no longer pay a
// millisecond of timer overshoot each.
func (p *realProc) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	p.debt += d
	if p.debt < sleepResolution {
		return
	}
	start := time.Now()
	time.Sleep(p.debt)
	p.debt -= time.Since(start)
	if p.debt < -sleepForgiveness {
		p.debt = -sleepForgiveness
	}
}

// SleepUntil blocks p until t. Unlike Sleep it bypasses the real proc's
// pacing debt and sleeps to t itself, so a caller whose deadlines all count
// from one origin absorbs each oversleep into its next wait rather than
// paying it again. A t already reached still yields once — on the sim clock
// as a zero Sleep does, on the real clock through runtime.Gosched — so a
// proc that would have blocked here lets the ones queued behind it run.
func SleepUntil(p Proc, t time.Time) {
	if !IsReal(p) {
		p.Sleep(t.Sub(p.Now()))
		return
	}
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
		return
	}
	runtime.Gosched()
}

// IsReal reports whether p executes on the real clock (an ordinary
// goroutine). Code that must block on channels or OS events — which would
// stall the simulated scheduler — can branch on it to take a real-clock
// select path while staying deterministic under simulation.
func IsReal(p Proc) bool {
	_, ok := p.(*realProc)
	return ok
}

func (p *realProc) Go(name string, fn func(p Proc)) {
	p.clk.wg.Add(1)
	go func() {
		defer p.clk.wg.Done()
		fn(&realProc{name: name, clk: p.clk})
	}()
}
