package serve

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotus/internal/core/trace"
	"lotus/internal/pipeline"
	"lotus/internal/testutil"
)

// TestAutoTuneLoopActsAndStaysByteIdentical is the end-to-end acceptance
// test for the closed control loop: a sim-mode server whose stall threshold
// is 1ns, on the controller's default pacing (10 batches per epoch clear
// minWaitSamples, so tick 2 grows workers), must actually move the worker
// knob while epochs stream, record every actuation in the
// /metrics control block and as control: ops in the trace ring — and every
// served frame must stay byte-identical to an untuned local DataLoader run,
// because worker count is schedule, not content.
func TestAutoTuneLoopActsAndStaysByteIdentical(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := loopbackSpec()
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2, AutoTune: true, Logf: t.Logf})
	// Count every wait (even the 1µs no-wait marker) as a stall so the
	// controller is guaranteed to see a preprocessing-bound signal.
	srv.tuner.longWait = time.Nanosecond
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	const epochs = 3
	expected := make([][][]byte, epochs)
	for e := 0; e < epochs; e++ {
		expected[e] = localEpochFrames(t, spec, e)
	}

	c := NewClient(ClientConfig{Addr: srv.Addr(), Rank: 0, World: 1, Name: "autotune"})
	type received struct {
		epoch, globalID int
		payload         []byte
	}
	var got []received
	stats, err := c.Run(epochs, func(b *Batch, payload []byte) {
		got = append(got, received{b.Epoch, b.GlobalID, append([]byte(nil), payload...)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epochs != epochs {
		t.Fatalf("client completed %d epochs, want %d", stats.Epochs, epochs)
	}

	// Byte identity under live retuning: every frame matches the local run.
	perEpoch := make([]int, epochs)
	for _, rec := range got {
		perEpoch[rec.epoch]++
		if !bytes.Equal(rec.payload, expected[rec.epoch][rec.globalID]) {
			t.Fatalf("epoch %d batch %d: autotuned frame differs from untuned local run",
				rec.epoch, rec.globalID)
		}
	}
	for e, n := range perEpoch {
		if n != len(expected[e]) {
			t.Fatalf("epoch %d: got %d batches, want %d", e, n, len(expected[e]))
		}
	}

	// The controller must have acted: baseline at epoch 1, then a grow at
	// every tick the cooldown allows under the saturated wait signal.
	st, ok := srv.ControlStats()
	if !ok {
		t.Fatal("ControlStats: autotune reported disabled")
	}
	if len(st.Actions) == 0 {
		t.Fatal("controller recorded no actions over a preprocessing-bound run")
	}
	if st.Workers <= spec.NumWorkers {
		t.Fatalf("workers still %d (started at %d) — controller never grew the pool",
			st.Workers, spec.NumWorkers)
	}
	for _, a := range st.Actions {
		if a.Knob != "workers" && a.Knob != "prefetch" {
			t.Fatalf("unexpected knob %q actuated: %v", a.Knob, a)
		}
	}

	// The /metrics control block mirrors the same history.
	var snap MetricsSnapshot
	getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &snap)
	if snap.Control == nil {
		t.Fatal("/metrics has no control block with autotune on")
	}
	if len(snap.Control.Actions) != len(st.Actions) {
		t.Fatalf("/metrics control block has %d actions, ControlStats has %d",
			len(snap.Control.Actions), len(st.Actions))
	}

	// Every actuation left a control: op in the trace ring at the reserved
	// controller PID.
	controlOps := 0
	for _, r := range srv.ring.Snapshot() {
		if r.Kind == trace.KindOp && strings.HasPrefix(r.Op, "control:") {
			if r.PID != controlPID {
				t.Fatalf("control op filed under PID %d, want %d", r.PID, controlPID)
			}
			controlOps++
		}
	}
	if controlOps != len(st.Actions) {
		t.Fatalf("ring holds %d control: ops, controller history has %d actions",
			controlOps, len(st.Actions))
	}

	// The client is still connected, idle: the drain drops it and returns.
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestAutoTuneOffHasNoControlSurface pins the default: no tuner, no control
// block, no control ops.
func TestAutoTuneOffHasNoControlSurface(t *testing.T) {
	spec := loopbackSpec()
	srv := startTestServer(t, spec, false)
	if _, ok := srv.ControlStats(); ok {
		t.Fatal("ControlStats reported enabled without -autotune")
	}
}

// TestTunerTickIsAtomic: whichever session finishes an epoch runs the
// control tick, so ticks race. An action applied after a later tick's would
// leave the plane's gate or window disagreeing with the controller's knobs
// (and with /metrics). First a forced interleaving — tick 2's action parks
// before it is applied while tick 4, past the cooldown, grows workers again
// — then free-running ticks from many goroutines; both must end with the
// plane equal to the knobs.
func TestTunerTickIsAtomic(t *testing.T) {
	srv := New(Config{Spec: loopbackSpec(), Mode: pipeline.Simulated, Prefetch: 2, AutoTune: true})
	tu := srv.tuner
	for i := 0; i < 16; i++ { // a saturated wait window: every tick is preprocessing-bound
		srv.ring.Add(trace.Record{Kind: trace.KindBatchWait, Dur: time.Second})
	}
	check := func(when string) {
		t.Helper()
		k := tu.ctrl.Knobs()
		srv.plane.gate.mu.Lock()
		slots := srv.plane.gate.slots
		srv.plane.gate.mu.Unlock()
		if slots != k.Workers || int(srv.window.Load()) != k.Prefetch {
			t.Fatalf("%s: plane has %d workers and window %d, controller reports %+v",
				when, slots, srv.window.Load(), k)
		}
	}
	srv.metrics.AddEpoch()
	tu.observe() // tick 1: baseline

	var parked atomic.Bool
	later := make(chan struct{})
	tu.beforeApply = func() {
		if !parked.CompareAndSwap(false, true) {
			return
		}
		go func() {
			srv.metrics.AddEpoch()
			srv.metrics.AddEpoch()
			tu.observe() // tick 4
			close(later)
		}()
		// A held tick keeps tick 4 out until this one has applied, so
		// this wait times out; without it, tick 4 applies first.
		select {
		case <-later:
		case <-time.After(100 * time.Millisecond):
		}
	}
	srv.metrics.AddEpoch()
	tu.observe() // tick 2
	<-later
	if n := len(tu.ctrl.History()); n != 2 {
		t.Fatalf("forced interleaving took %d actions, want 2 worker grows", n)
	}
	check("tick 2 parked across tick 4")

	tu.beforeApply = runtime.Gosched
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				srv.metrics.AddEpoch()
				tu.observe()
			}
		}()
	}
	wg.Wait()
	check("concurrent ticks")
}

// TestQueueFillPerStreamWindow: each stream's queue fill is measured against
// its own slot count. A stream's window is min(window at its start, shard
// length), so a one-batch ShardReq with its frame ready is full, not a
// quarter full of the server's window of 4 — else a node serving hedges and
// retries could never look consumer-bound.
func TestQueueFillPerStreamWindow(t *testing.T) {
	m := NewMetrics(time.Now())
	short := m.OpenSession(1, "hedge", "", 0, 1, time.Now())
	short.SetQueueGauge(func() int { return 1 }, 1) // a one-batch shard, its frame ready
	if got := m.QueueFill(); got != 1 {
		t.Fatalf("one-slot stream with its frame ready: fill %.2f, want 1", got)
	}
	full := m.OpenSession(2, "trainer", "", 0, 1, time.Now())
	full.SetQueueGauge(func() int { return 2 }, 4)
	if got := m.QueueFill(); got != 0.75 {
		t.Fatalf("mean of 1/1 and 2/4: fill %.2f, want 0.75", got)
	}
	short.SetQueueGauge(nil, 0) // between epochs: skipped
	if got := m.QueueFill(); got != 0.5 {
		t.Fatalf("only the 2/4 stream live: fill %.2f, want 0.5", got)
	}
	if snap := full.snapshot(time.Now()); snap.QueueDepth != 2 {
		t.Fatalf("queue_depth %d, want the count 2", snap.QueueDepth)
	}
}
