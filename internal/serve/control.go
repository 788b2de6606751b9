package serve

import (
	"time"

	"lotus/internal/control"
	"lotus/internal/core/trace"
)

// This file is the server-side driver of the internal/control loop: it
// assembles Signals from counters the server already exports (the trace
// ring's T2 wait records, the per-session prefetch-queue gauges, the three
// cache tiers' stats) and applies the controller's Actions to the live
// knobs — the compute plane's worker count, the per-session prefetch window,
// and the byte budgets of the batch, sample, and disk caches.
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

// tuner binds one Server to one control.Controller.
type tuner struct {
	srv      *Server
	ctrl     *control.Controller
	longWait time.Duration
}

func newTuner(s *Server, cfg control.Config, longWait time.Duration) *tuner {
	initial := control.Knobs{
		Workers:     s.plane.gate.slots,
		Prefetch:    s.cfg.Prefetch,
		BatchBytes:  s.cfg.BatchCacheBytes,
		SampleBytes: s.cfg.SampleCacheBytes,
		DiskBytes:   s.cfg.DiskCacheBytes,
	}
	if longWait <= 0 {
		longWait = 500 * time.Millisecond
	}
	return &tuner{srv: s, ctrl: control.NewController(cfg, initial), longWait: longWait}
}

// observe is the control tick: called by whichever session goroutine just
// completed an epoch. It snapshots the signals, runs the controller, and
// applies every returned action.
func (t *tuner) observe() {
	for _, a := range t.ctrl.Observe(t.signals()) {
		t.apply(a)
	}
}

// signals assembles one observation from the server's live counters.
func (t *tuner) signals() control.Signals {
	s := t.srv
	sig := control.Signals{Counter: s.metrics.EpochsServed()}

	// T2 wait window: every KindBatchWait record still in the ring.
	var waitSum time.Duration
	var long int64
	for _, r := range s.ring.Snapshot() {
		if r.Kind != trace.KindBatchWait {
			continue
		}
		sig.WaitCount++
		waitSum += r.Dur
		if r.Dur >= t.longWait {
			long++
		}
	}
	if sig.WaitCount > 0 {
		sig.LongWaitFrac = float64(long) / float64(sig.WaitCount)
		sig.MeanWait = waitSum / time.Duration(sig.WaitCount)
	}
	sig.QueueFill = s.metrics.QueueFill(int(s.window.Load()))

	if st, ok := s.CacheStats(); ok {
		sig.Batch = control.CacheSignals{Enabled: true, Hits: st.Hits, Misses: st.Misses,
			Evictions: st.Evicted, BytesUsed: st.BytesUsed, BytesBudget: st.BytesBudget}
	}
	if st, ok := s.SampleCacheStats(); ok {
		sig.Sample = control.CacheSignals{Enabled: true, Hits: st.Hits, Misses: st.Misses,
			Evictions: st.Evicted, BytesUsed: st.BytesUsed, BytesBudget: st.BytesBudget}
	}
	if st, ok := s.DiskCacheStats(); ok {
		sig.Disk = control.CacheSignals{Enabled: true,
			Hits: st.BatchHits + st.SampleHits, Misses: st.BatchMisses + st.SampleMisses,
			Evictions: st.SegmentsEvicted, BytesUsed: st.BytesUsed, BytesBudget: st.BytesBudget}
	}
	return sig
}

// apply actuates one controller action: worker actions resize the compute
// plane (growth at once, shrinkage as running batches finish), prefetch
// actions set the window the next streamed epoch opens, cache actions
// retarget the tier's byte budget immediately.
// Every action lands in the trace ring as a `control` op so a /trace
// export shows exactly when the loop intervened.
func (t *tuner) apply(a control.Action) {
	switch a.Knob {
	case "workers":
		t.srv.plane.gate.resize(int(a.To))
	case "prefetch":
		t.srv.window.Store(a.To)
	case "cache.batch":
		if t.srv.cache != nil {
			t.srv.cache.SetBudget(a.To)
		}
	case "cache.sample":
		if t.srv.sampleCache != nil {
			t.srv.sampleCache.SetBudget(a.To)
		}
	case "cache.disk":
		if t.srv.disk != nil {
			t.srv.disk.SetBudget(a.To)
		}
	}
	t.srv.ring.Add(trace.Record{Kind: trace.KindOp, PID: controlPID,
		BatchID: int(a.Tick), SampleIndex: -1, Op: "control:" + a.Knob,
		Start: time.Now()})
	t.srv.cfg.Logf("lotus-serve: autotune: %s", a)
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
