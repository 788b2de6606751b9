package serve

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"lotus/internal/pipeline"
	"lotus/internal/tensor"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// TestStreamShapeRejectedBeforeCallback: a fake server answers every request
// with correctly digested frames in the wrong shape — two swapped, one
// dropped, one duplicated, one from another epoch, one never requested. The
// client checks each frame against the request position it answers, so Run
// and FetchShard both fail, every attempt's callback saw a prefix of the
// requested IDs and no more, a retry asks only for the IDs after that
// prefix, and Run credits exactly the batches it delivered.
func TestStreamShapeRejectedBeforeCallback(t *testing.T) {
	const planLen = 4
	type frame struct{ epoch, id int }
	honest := func(e int, ids []int) []frame {
		out := make([]frame, len(ids))
		for k, id := range ids {
			out[k] = frame{e, id}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		// ids has 4 IDs on Run's first attempt and 3 for FetchShard. Run's
		// retry asks only for the undelivered rest: 3 or 4 IDs, but one ID
		// for "foreign epoch", which damages the last frame and so
		// delivers 3 first.
		serve func(e int, ids []int) []frame
	}{
		{"swapped", func(e int, ids []int) []frame {
			f := honest(e, ids)
			f[0], f[1] = f[1], f[0]
			return f
		}},
		{"dropped", func(e int, ids []int) []frame { return slices.Delete(honest(e, ids), 1, 2) }},
		{"duplicated", func(e int, ids []int) []frame { return slices.Insert(honest(e, ids), 1, frame{e, ids[0]}) }},
		{"foreign epoch", func(e int, ids []int) []frame {
			f := honest(e, ids)
			f[len(f)-1].epoch = e + 1
			return f
		}},
		{"unrequested", func(e int, ids []int) []frame {
			f := honest(e, ids)
			f[1].id = 99
			return f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go func() {
						defer conn.Close()
						if _, err := ReadFrame(conn, 0); err != nil { // Hello
							return
						}
						WriteFrame(conn, EncodeHelloAck(HelloAck{Version: ProtocolVersion, DatasetLen: planLen, BatchSize: 1, PlanBatches: planLen}))
						for {
							payload, err := ReadFrame(conn, 0)
							if err != nil {
								return
							}
							msg, _ := DecodeMessage(payload)
							req, ok := msg.(ShardReq)
							if !ok {
								return // Bye
							}
							for _, f := range tc.serve(req.Epoch, req.IDs) {
								WriteFrame(conn, EncodeBatch(&Batch{Epoch: f.epoch, GlobalID: f.id, Indices: []int{f.id},
									Labels: []int{f.id}, Dtype: tensor.Uint8, Shape: []int{1, 8}}))
							}
						}
					}()
				}
			}()

			var seen []int
			onBatch := func(b *Batch, _ []byte) { seen = append(seen, b.GlobalID) }
			// checkPrefix returns how many of ids the callback saw.
			checkPrefix := func(what string, ids []int) int {
				t.Helper()
				if len(seen) >= len(ids) || !slices.Equal(seen, ids[:len(seen)]) {
					t.Errorf("%s: callback saw %v, want a proper prefix of the requested %v", what, seen, ids)
				}
				n := len(seen)
				seen = nil
				return n
			}

			remaining := planIDs(planLen)
			delivered := 0
			c := NewClient(ClientConfig{Addr: ln.Addr().String(), Name: "shape", Retries: 1,
				Sleep: func(time.Duration) {},
				OnRetry: func(int, int, error) {
					n := checkPrefix("Run, first attempt", remaining)
					delivered += n
					remaining = remaining[n:]
				}})
			defer c.Close()
			stats, err := c.Run(1, onBatch)
			var se *ServerError
			if err == nil || errors.As(err, &se) {
				t.Fatalf("Run: %v, want a retried stream-shape error", err)
			}
			delivered += checkPrefix("Run, last attempt", remaining)
			if stats.Retries != 1 || stats.Batches != delivered {
				t.Fatalf("Run: %d retries, %d batches credited; want 1 and the %d delivered", stats.Retries, stats.Batches, delivered)
			}

			ids := []int{3, 0, 2}
			if err := c.FetchShard(5, ids, onBatch); err == nil || errors.As(err, &se) {
				t.Fatalf("FetchShard: %v, want a stream-shape error", err)
			}
			checkPrefix("FetchShard", ids)
		})
	}
}

// TestPipelinedShardReqs: one connection sends its next real-pixel ShardReq
// the instant the previous stream's last frame header arrives, 200 times.
// The connection's receive buffer is a fraction of a frame, so the server is
// still writing that frame when the request lands. The server stops its
// half-duplex watcher before it hands that frame to the writer, so the
// watcher never reads a byte of the next request: every stream arrives whole
// and equal to the local run, and no epoch aborts.
func TestPipelinedShardReqs(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, FramesInUse))
	spec := workloads.ICSpec(64, 7)
	spec.BatchSize = 16 // 4 batches per epoch
	spec.NumWorkers = 2
	const dim, streams = 64, 200
	srv := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: dim, BatchCacheBytes: 64 << 20,
		Prefetch: 2, Logf: t.Logf})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want := [][]*Batch{localEpochBatches(t, spec, 0, pipeline.RealData, dim), localEpochBatches(t, spec, 1, pipeline.RealData, dim)}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(2 * time.Minute))
	WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, World: 1, Name: "pipelined"}))
	payload, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := DecodeMessage(payload)
	ack, ok := msg.(HelloAck)
	if !ok || ack.Table == nil || ack.PlanBatches != len(want[0]) {
		t.Fatalf("handshake: %+v, want a HelloAck with a tensor tail table and a %d-batch plan", msg, len(want[0]))
	}
	// One to four IDs per stream, from a rotation of the plan; alternating
	// epochs.
	request := func(i int) (int, []int) {
		ids := planIDs(ack.PlanBatches)
		k := i % len(ids)
		return i % 2, append(ids[k:], ids[:k]...)[:1+i/2%len(ids)]
	}
	send := func(i int) {
		e, ids := request(i)
		if err := WriteFrame(conn, EncodeShardReq(ShardReq{Epoch: e, IDs: ids})); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// The first delivery of each batch is finished and compared with the
	// local run; every later one must repeat its frame byte for byte.
	fin := &Client{ack: ack}
	first := make(map[[2]int][]byte)
	send(0)
	for i := range streams {
		e, ids := request(i)
		for k, id := range ids {
			n, digest, err := readFrameHeader(conn, 0)
			if err != nil {
				t.Fatalf("stream %d frame %d: %v", i, k, err)
			}
			if k == len(ids)-1 && i+1 < streams {
				send(i + 1)
			}
			payload := make([]byte, n)
			if err := readFramePayload(conn, payload); err != nil {
				t.Fatalf("stream %d frame %d: %v", i, k, err)
			}
			if err := checkDigest(payload, digest); err != nil {
				t.Fatalf("stream %d frame %d: %v", i, k, err)
			}
			if prev, ok := first[[2]int{e, id}]; ok {
				if !bytes.Equal(payload, prev) {
					t.Fatalf("stream %d frame %d: batch %d of epoch %d changed between streams", i, k, id, e)
				}
				continue
			}
			first[[2]int{e, id}] = payload
			msg, err := DecodeMessage(payload)
			b, ok := msg.(*Batch)
			if !ok {
				t.Fatalf("stream %d frame %d: %v (%v), want batch %d of epoch %d", i, k, msg, err, id, e)
			}
			if err := fin.finish(b); err != nil {
				t.Fatal(err)
			}
			if !sameBatch(b, want[e][id]) {
				t.Fatalf("stream %d frame %d: %v, want batch %d of epoch %d as the local run makes it", i, k, b.Shape, id, e)
			}
		}
	}
	WriteFrame(conn, EncodeBye())
	if _, err := ReadFrame(conn, 0); err != io.EOF {
		t.Fatalf("after Bye: %v, want the server to close", err)
	}
	snap := srv.Metrics().Snapshot(time.Now(), 0)
	if snap.EpochsAborted != 0 || snap.EpochsServed != streams {
		t.Fatalf("epochs served %d, aborted %d; want %d and 0", snap.EpochsServed, snap.EpochsAborted, streams)
	}
}

// TestQueueDepthGauge: a session's queue_depth is the count of frames ready
// in its stream's window, read through the gauge the stream installs, and 0
// between epochs.
func TestQueueDepthGauge(t *testing.T) {
	m := NewMetrics(time.Now())
	sm := m.OpenSession(1, "trainer", "", 0, 1, time.Now())
	sm.SetQueueGauge(func() int { return 2 })
	if snap := sm.snapshot(time.Now()); snap.QueueDepth != 2 {
		t.Fatalf("queue_depth %d, want the count 2", snap.QueueDepth)
	}
	sm.SetQueueGauge(nil)
	if snap := sm.snapshot(time.Now()); snap.QueueDepth != 0 {
		t.Fatalf("queue_depth %d between epochs, want 0", snap.QueueDepth)
	}
}
