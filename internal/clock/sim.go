package clock

import (
	"container/heap"
	"fmt"
	"strings"
	"sync"
	"time"
)

// procState tracks where a simulated proc currently is in its lifecycle.
type procState int

const (
	// stateRunning: the proc holds the execution token (at most one proc at a
	// time does).
	stateRunning procState = iota
	// stateRunnable: the proc is ready to run and queued behind the current
	// proc.
	stateRunnable
	// stateSleeping: the proc is parked until a virtual deadline.
	stateSleeping
	// stateWaiting: the proc is parked on a Cond until Broadcast.
	stateWaiting
	// stateDone: the proc function returned.
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateRunning:
		return "running"
	case stateRunnable:
		return "runnable"
	case stateSleeping:
		return "sleeping"
	case stateWaiting:
		return "waiting"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// Sim is the deterministic cooperative virtual-time scheduler. Exactly one
// proc executes between blocking points; ties in wake-up time are broken by
// spawn order, so a given program produces the same schedule every run.
type Sim struct {
	mu   sync.Mutex
	cond *sync.Cond

	now      time.Duration // virtual time since Epoch
	seq      int           // next proc sequence number
	current  *simProc      // proc holding the execution token, nil when idle
	runnable []*simProc    // FIFO of procs ready to run (valid from rhead)
	rhead    int           // index of the FIFO's front element
	due      []*simProc    // scratch for procs waking at the same instant
	sleepers sleepHeap
	waiting  int        // procs parked in Cond.Wait
	live     int        // procs not yet done
	procs    []*simProc // every proc ever spawned, for diagnostics
	fail     string     // non-empty once the scheduler detects deadlock
	switches int        // token handoffs
	advances int        // virtual-time steps
}

// NewSim returns a fresh virtual-time Clock. The clock starts at Epoch.
func NewSim() *Sim {
	s := &Sim{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Now reports the current virtual time. It is safe to call from outside a
// proc (e.g. after Run returns, to read the total elapsed virtual time).
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Epoch.Add(s.now)
}

// Elapsed reports the total virtual time that has passed since the clock was
// created.
func (s *Sim) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// SimStats summarizes scheduler activity — useful for judging a workload's
// simulation cost independent of host speed.
type SimStats struct {
	// Procs is the number of procs ever spawned.
	Procs int
	// Switches counts token handoffs (context switches).
	Switches int
	// Advances counts distinct virtual-time steps.
	Advances int
}

// Stats reports scheduler activity so far.
func (s *Sim) Stats() SimStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SimStats{Procs: len(s.procs), Switches: s.switches, Advances: s.advances}
}

// Run implements Clock.
func (s *Sim) Run(name string, fn func(p Proc)) {
	s.mu.Lock()
	s.spawnLocked(name, fn)
	// Hand the token to the root proc if the scheduler is idle.
	if s.current == nil {
		s.scheduleLocked()
	}
	// Block the caller (a real goroutine outside the simulation) until every
	// proc has finished or the scheduler detects a deadlock.
	for s.live > 0 && s.fail == "" {
		s.cond.Wait()
	}
	fail := s.fail
	s.mu.Unlock()
	if fail != "" {
		panic(fail)
	}
}

func (s *Sim) NewCond() Cond { return &simCond{sim: s} }

// spawnLocked registers a new proc and queues it as runnable. The proc's
// goroutine parks immediately until it is handed the token.
func (s *Sim) spawnLocked(name string, fn func(p Proc)) *simProc {
	p := &simProc{sim: s, name: name, seq: s.seq, state: stateRunnable}
	s.seq++
	s.live++
	s.procs = append(s.procs, p)
	s.runnable = append(s.runnable, p)
	go func() {
		s.mu.Lock()
		for p.state != stateRunning {
			s.cond.Wait()
		}
		s.mu.Unlock()

		// Deferred, as the real clock's wg.Done is, so a proc that leaves by
		// runtime.Goexit (t.Fatal in a callback) still finishes.
		defer func() {
			s.mu.Lock()
			p.state = stateDone
			s.live--
			s.current = nil
			s.scheduleLocked()
			s.cond.Broadcast()
			s.mu.Unlock()
		}()
		fn(p)
	}()
	return p
}

// scheduleLocked picks the next proc to run. If nothing is runnable it
// advances virtual time to the earliest sleep deadline; if nothing is
// sleeping either but procs are parked on conds, the simulation is
// deadlocked and we panic with a diagnostic.
func (s *Sim) scheduleLocked() {
	if s.current != nil {
		return
	}
	for {
		if s.rhead < len(s.runnable) {
			p := s.runnable[s.rhead]
			s.runnable[s.rhead] = nil
			s.rhead++
			if s.rhead == len(s.runnable) {
				// FIFO drained: rewind so pushes reuse the backing array
				// instead of growing it forever.
				s.runnable = s.runnable[:0]
				s.rhead = 0
			} else if s.rhead >= 64 && s.rhead*2 >= len(s.runnable) {
				// Mostly-consumed FIFO that never fully drains: compact so
				// the dead prefix is reclaimed.
				n := copy(s.runnable, s.runnable[s.rhead:])
				for i := n; i < len(s.runnable); i++ {
					s.runnable[i] = nil
				}
				s.runnable = s.runnable[:n]
				s.rhead = 0
			}
			p.state = stateRunning
			s.current = p
			s.switches++
			s.cond.Broadcast()
			return
		}
		if s.sleepers.Len() > 0 {
			// Advance time to the earliest deadline and wake every proc due
			// at that instant, in spawn order.
			t := s.sleepers[0].deadline
			if t > s.now {
				s.now = t
				s.advances++
			}
			due := s.due[:0]
			for s.sleepers.Len() > 0 && s.sleepers[0].deadline <= s.now {
				due = append(due, heap.Pop(&s.sleepers).(*simProc))
			}
			// Insertion sort by spawn order: due batches are small, and
			// unlike sort.Slice this does not allocate in the scheduler's
			// hottest loop.
			for i := 1; i < len(due); i++ {
				for j := i; j > 0 && due[j-1].seq > due[j].seq; j-- {
					due[j-1], due[j] = due[j], due[j-1]
				}
			}
			for _, p := range due {
				p.state = stateRunnable
				s.runnable = append(s.runnable, p)
			}
			s.due = due[:0]
			continue
		}
		if s.live == 0 {
			return // simulation finished
		}
		if s.waiting > 0 {
			s.failLocked("clock: simulation deadlock — all procs waiting on conds:\n" + s.dumpLocked())
			return
		}
		// live > 0 but nothing runnable, sleeping, or waiting: procs must be
		// blocked outside the clock, which the scheduler cannot recover from.
		s.failLocked("clock: simulation stalled — live procs blocked outside the clock:\n" + s.dumpLocked())
		return
	}
}

// failLocked records a fatal scheduler condition and wakes Run's caller,
// which re-raises it as a panic on the caller's goroutine. Parked procs are
// intentionally left parked: the simulation is unrecoverable.
func (s *Sim) failLocked(msg string) {
	if s.fail == "" {
		s.fail = msg
	}
	s.cond.Broadcast()
}

// dumpLocked renders proc states for deadlock diagnostics.
func (s *Sim) dumpLocked() string {
	var b strings.Builder
	for _, p := range s.procs {
		if p.state == stateDone {
			continue
		}
		fmt.Fprintf(&b, "  proc %q (#%d): %s\n", p.name, p.seq, p.state)
	}
	return b.String()
}

// yieldLocked releases the token from proc p (which must be current) and
// hands it to the next runnable proc, then blocks until p runs again.
func (s *Sim) blockLocked(p *simProc) {
	s.current = nil
	s.scheduleLocked()
	for p.state != stateRunning {
		s.cond.Wait()
	}
}

// simProc is a proc under the simulated scheduler.
type simProc struct {
	sim      *Sim
	name     string
	seq      int
	state    procState
	deadline time.Duration // valid while sleeping
}

func (p *simProc) Name() string { return p.name }

func (p *simProc) Now() time.Time {
	p.sim.mu.Lock()
	defer p.sim.mu.Unlock()
	return Epoch.Add(p.sim.now)
}

func (p *simProc) Sleep(d time.Duration) {
	if d <= 0 {
		// Even zero-length sleeps yield the token so that same-instant procs
		// interleave deterministically rather than one proc monopolizing.
		d = 0
	}
	s := p.sim
	s.mu.Lock()
	defer s.mu.Unlock()
	p.deadline = s.now + d
	p.state = stateSleeping
	heap.Push(&s.sleepers, p)
	s.blockLocked(p)
}

func (p *simProc) Go(name string, fn func(p Proc)) {
	s := p.sim
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spawnLocked(name, fn)
}

// simCond is a condition variable in the simulated domain. All simConds of a
// Sim share the scheduler mutex, which is safe because only one proc executes
// at a time; each cond keeps its own waiter list so Broadcast wakes only its
// own waiters.
type simCond struct {
	sim     *Sim
	waiters []*simProc
}

func (c *simCond) Lock()   { c.sim.mu.Lock() }
func (c *simCond) Unlock() { c.sim.mu.Unlock() }

func (c *simCond) Wait(proc Proc) {
	p, ok := proc.(*simProc)
	if !ok {
		panic("clock: simCond.Wait called with a non-sim proc")
	}
	s := c.sim
	c.waiters = append(c.waiters, p)
	p.state = stateWaiting
	s.waiting++
	s.blockLocked(p)
}

func (c *simCond) Broadcast() {
	s := c.sim
	for _, p := range c.waiters {
		p.state = stateRunnable
		s.waiting--
		s.runnable = append(s.runnable, p)
	}
	c.waiters = c.waiters[:0]
}

// sleepHeap is a min-heap of sleeping procs ordered by (deadline, seq).
type sleepHeap []*simProc

func (h sleepHeap) Len() int { return len(h) }
func (h sleepHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h sleepHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *sleepHeap) Push(x any) { *h = append(*h, x.(*simProc)) }

func (h *sleepHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}
