package serve

import (
	"errors"
	"testing"
	"time"

	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
	"lotus/internal/tensor"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// TestWirePointFrameBytes counts the bytes of a served IC batch at the
// benchmark's geometry (batch 32, cap 256): the frame is the 320-byte header
// and 32 x 224 x 224 x 3 pixels, 4,816,896 bytes (a float32 frame was
// 19,267,584), the server digests exactly those bytes once per batch, and the
// callback still gets the float32 [32, 3, 224, 224] batch. The session's
// HelloAck carries the plan's table; a simulated server's carries none.
func TestWirePointFrameBytes(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := hotFrameSpec(64)
	srv := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: 256, Prefetch: 2, Logf: t.Logf})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "count"})
	defer c.Close()
	const frame = 320 + 32*224*224*3
	batches := 0
	st, err := c.Run(1, func(b *Batch, payload []byte) {
		batches++
		if len(payload) != frame {
			t.Errorf("batch %d: %d-byte frame, want %d", b.GlobalID, len(payload), frame)
		}
		if b.Dtype != tensor.Float32 || len(b.F32) != 32*3*224*224 || len(b.Shape) != 4 || b.Shape[1] != 3 {
			t.Errorf("batch %d: handed on %s %v, want float32 [32 3 224 224]", b.GlobalID, b.Dtype, b.Shape)
		}
	})
	if err != nil || batches != 2 {
		t.Fatalf("fetched %d batches: %v", batches, err)
	}
	if st.Bytes != 2*(frame+FrameHeaderSize) {
		t.Errorf("client counted %d bytes, want %d", st.Bytes, 2*(frame+FrameHeaderSize))
	}
	ack, _ := c.Ack()
	if want := spec.Compose(nil).TailTable(pipeline.RealData, false); ack.Table == nil || *ack.Table != *want {
		t.Fatal("HelloAck does not carry the plan's tensor tail table")
	}
	snap := srv.Metrics().Snapshot(time.Now(), 0)
	if snap.FramesDigested != 2 || snap.DigestBytes != 2*frame {
		t.Fatalf("server digested %d frames, %d bytes; want 2 and %d", snap.FramesDigested, snap.DigestBytes, 2*frame)
	}

	sim := startTestServer(t, loopbackSpec(), false)
	cs := NewClient(ClientConfig{Addr: sim.Addr(), Name: "sim"})
	defer cs.Close()
	if err := cs.Connect(); err != nil {
		t.Fatal(err)
	}
	if ack, _ := cs.Ack(); ack.Table != nil {
		t.Fatal("a simulated server sent a tensor tail table")
	}
}

// TestTableSessionRefusesUnfinishableBatch: a session whose HelloAck carried
// a table takes only uint8 [N, H, W, 3] batches. A float32 one — what a
// version 3 server, or a server that finished the tail itself, would send —
// ends the epoch with ErrMalformed before any callback.
func TestTableSessionRefusesUnfinishableBatch(t *testing.T) {
	m := &Batch{Indices: []int{1}, Labels: []int{2}, Dtype: tensor.Float32, Shape: []int{1, 3, 2, 2}, F32: make([]float32, 12)}
	c := NewClient(ClientConfig{Addr: feedFrames(t, EncodeBatch(m), 1), Name: "strict"})
	defer c.Close()
	err := c.FetchShard(0, []int{0}, func(*Batch, []byte) { t.Fatal("an unfinishable batch reached the callback") })
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
}

// TestCorruptFrameNeverReachesCallback: a frame damaged on the wire fails its
// header digest on arrival, so the callback never sees it; the session
// retries the epoch on ErrCorruptFrame from that frame on and delivers each
// true batch once.
func TestCorruptFrameNeverReachesCallback(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := workloads.ICSpec(96, 7)
	spec.BatchSize = 16
	spec.NumWorkers = 2
	const dim = 32
	srv := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: dim, Prefetch: 2, Logf: t.Logf,
		Faults: faultinject.New(faultinject.Spec{CorruptFrame: 3, Seed: 1})})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want := localEpochBatches(t, spec, 0, pipeline.RealData, dim)
	var retryErrs []error
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "corrupt", Sleep: func(time.Duration) {},
		OnRetry: func(_, _ int, err error) { retryErrs = append(retryErrs, err) }})
	defer c.Close()
	delivered := make(map[int]int)
	if _, err := c.Run(1, func(b *Batch, _ []byte) {
		delivered[b.GlobalID]++
		if !sameBatch(b, want[b.GlobalID]) {
			t.Errorf("batch %d reached the callback and differs from the local run", b.GlobalID)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(retryErrs) != 1 || !errors.Is(retryErrs[0], ErrCorruptFrame) {
		t.Fatalf("retries %v, want one on ErrCorruptFrame", retryErrs)
	}
	// Two frames went through before the third was damaged, then the other
	// four: each batch once.
	for id := range want {
		if delivered[id] != 1 {
			t.Fatalf("deliveries per batch %v, want each of %d batches once", delivered, len(want))
		}
	}
}
