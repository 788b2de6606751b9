package serve

import (
	"sync"
	"time"

	"lotus/internal/control"
	"lotus/internal/core/trace"
)

// This file is the server-side driver of the internal/control loop: it
// assembles Signals from counters the server already exports (the trace
// ring's T2 wait records, the per-session prefetch-queue gauges) and applies
// the controller's Actions to the live knobs — the compute plane's worker
// count and the per-session prefetch window.
//
// The tick point is epoch completion (after Metrics.AddEpoch), and the
// controller keys every decision off the epochs-served counter: the same
// signal history produces the same action sequence, and no goroutine samples
// a timer to decide anything. (The wait signal itself is wall-clock — it is
// what each session's write loop measured waiting for the plane.)

// The ring's three pid ranges are disjoint by construction: controller
// actions at controlPID, the plane's workers at pipeline.WorkerPID(slot)
// (4001 and up, one per pool slot), and a session's wait/consume records at
// sessionPIDBase + session id — far above any worker count the pool can
// reach.
const (
	controlPID     = 999
	sessionPIDBase = 1 << 20
)

// longWait classifies a main-process batch wait as a stall for the
// controller's wait-fraction signal (the advisor's threshold).
const longWait = 500 * time.Millisecond

// tuner binds one Server to one control.Controller.
type tuner struct {
	srv  *Server
	ctrl *control.Controller
	// longWait is the stall threshold (the longWait constant; in-package
	// tests lower it to make every wait a stall).
	longWait time.Duration

	// mu makes a tick atomic: whichever session finishes an epoch observes,
	// and an action applied after a later one would leave the plane's gate
	// or window disagreeing with the controller's knobs.
	mu sync.Mutex
	// beforeApply, when set, runs between Observe and apply (tests inject an
	// interleaving there).
	beforeApply func()
}

func newTuner(s *Server) *tuner {
	initial := control.Knobs{Workers: s.plane.gate.slots, Prefetch: s.cfg.Prefetch}
	return &tuner{srv: s, ctrl: control.NewController(initial), longWait: longWait}
}

// observe is the control tick: called by whichever session goroutine just
// completed an epoch. It snapshots the signals, runs the controller, and
// applies every returned action. Every action lands in the trace ring as a
// `control` op so a /trace export shows exactly when the loop intervened.
func (t *tuner) observe() {
	t.mu.Lock()
	acts := t.ctrl.Observe(t.signals())
	if len(acts) > 0 && t.beforeApply != nil {
		t.beforeApply()
	}
	for _, a := range acts {
		t.apply(a)
	}
	t.mu.Unlock()
	for _, a := range acts {
		t.srv.ring.Add(trace.Record{Kind: trace.KindOp, PID: controlPID,
			BatchID: int(a.Tick), SampleIndex: -1, Op: "control:" + a.Knob,
			Start: time.Now()})
		t.srv.cfg.Logf("lotus-serve: autotune: %s", a)
	}
}

// signals assembles one observation from the server's live counters.
func (t *tuner) signals() control.Signals {
	s := t.srv
	sig := control.Signals{Counter: s.metrics.EpochsServed(), QueueFill: s.metrics.QueueFill()}

	// T2 wait window: every KindBatchWait record still in the ring.
	var long int64
	for _, r := range s.ring.Snapshot() {
		if r.Kind != trace.KindBatchWait {
			continue
		}
		sig.WaitCount++
		if r.Dur >= t.longWait {
			long++
		}
	}
	if sig.WaitCount > 0 {
		sig.LongWaitFrac = float64(long) / float64(sig.WaitCount)
	}
	return sig
}

// apply actuates one controller action: worker actions resize the compute
// plane (growth at once, shrinkage as running batches finish), prefetch
// actions set the window the next streamed epoch opens.
func (t *tuner) apply(a control.Action) {
	switch a.Knob {
	case "workers":
		t.srv.plane.gate.resize(int(a.To))
	case "prefetch":
		t.srv.window.Store(a.To)
	}
}

// ControlStats is the /metrics `control` block: current knob settings plus
// the full actuation history.
type ControlStats struct {
	Workers  int              `json:"workers"`
	Prefetch int              `json:"prefetch"`
	Actions  []control.Action `json:"actions"`
}

// ControlStats reports the autotuner's knobs and history; ok is false when
// autotuning is disabled.
func (s *Server) ControlStats() (ControlStats, bool) {
	if s.tuner == nil {
		return ControlStats{}, false
	}
	knobs := s.tuner.ctrl.Knobs()
	return ControlStats{
		Workers:  knobs.Workers,
		Prefetch: knobs.Prefetch,
		Actions:  s.tuner.ctrl.History(),
	}, true
}
