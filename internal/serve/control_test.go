package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"lotus/internal/control"
	"lotus/internal/core/trace"
	"lotus/internal/pipeline"
	"lotus/internal/testutil"
)

// TestAutoTuneLoopActsAndStaysByteIdentical is the end-to-end acceptance
// test for the closed control loop: a sim-mode server with a deliberately
// twitchy controller (1ns stall threshold, cooldown 1) must actually move
// the worker knob while epochs stream, record every actuation in the
// /metrics control block and as control: ops in the trace ring — and every
// served frame must stay byte-identical to an untuned local DataLoader run,
// because worker count is schedule, not content.
func TestAutoTuneLoopActsAndStaysByteIdentical(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := loopbackSpec()
	srv := New(Config{
		Spec:     spec,
		Mode:     pipeline.Simulated,
		Prefetch: 2,
		AutoTune: true,
		// Count every wait (even the 1µs no-wait marker) as a stall so the
		// controller is guaranteed to see a preprocessing-bound signal and
		// grow workers each tick.
		AutoTuneLongWait: time.Nanosecond,
		AutoTuneControl:  control.Config{Cooldown: 1, MinWaitSamples: 1},
		Logf:             t.Logf,
	})
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

	// The controller must have acted: baseline at epoch 1, then a grow per
	// tick under the saturated wait signal.
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
