package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"lotus/internal/clock"
	"lotus/internal/native"
	"lotus/internal/pipeline"
	"lotus/internal/tensor"
	"lotus/internal/workloads"
)

// runBatchWorker preprocesses one batch the way the plane does — same worker
// configuration, same call — with the collate destination of the caller's
// choice.
func runBatchWorker(t *testing.T, spec workloads.Spec, mode pipeline.Mode, dim int, indices []int, dst pipeline.CollateDst) *pipeline.Batch {
	t.Helper()
	cfg := pipeline.Config{Seed: spec.Seed, Mode: mode, MaterializeDim: dim}
	var clk clock.Clock = clock.NewReal()
	if mode != pipeline.RealData {
		cfg.Engine = native.NewEngine(spec.Arch, native.DefaultCPU())
		clk = clock.NewSim()
	}
	w := pipeline.NewBatchWorker(0, spec.Dataset(nil), cfg)
	var b *pipeline.Batch
	var err error
	clk.Run("hotpath-test", func(p clock.Proc) { b, err = w.Run(p, 3, indices, dst) })
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCollateIntoFrameEqualsAppendBatch is the fused path's byte-identity:
// a batch whose worker collated straight into a pooled frame buffer
// (frameCollate, what plane.compute does) is, byte for byte and digest for
// digest, AppendBatch of the same batch collated into a tensor of its own —
// for a uint8 tensor (IS) and a meta one (simulated), on a recycled buffer as
// on a fresh one. A plan with a tensor tail (IC) stops one pass short in the
// frame: its frame is the pixels', and finishing it as a Client does gives
// the float32 batch the worker makes without a frame.
func TestCollateIntoFrameEqualsAppendBatch(t *testing.T) {
	cases := []struct {
		name    string
		spec    workloads.Spec
		mode    pipeline.Mode
		dim     int
		indices []int
	}{
		{"pixels", workloads.ICSpec(64, 7), pipeline.RealData, 48, []int{5, 0, 3}},
		// IS crops differ in shape from volume to volume at this size: a batch of one.
		{"uint8", workloads.ISSpec(8, 7), pipeline.RealData, 24, []int{5}},
		{"meta", workloads.ICSpec(64, 7), pipeline.Simulated, 0, []int{5, 0, 3}},
	}
	for _, tc := range cases {
		indices := tc.indices
		ref := batchToWire(2, 9, runBatchWorker(t, tc.spec, tc.mode, tc.dim, indices, nil))
		table := tc.spec.Compose(nil).TailTable(tc.mode, false)
		if (table != nil) != (tc.name == "pixels") {
			t.Fatalf("%s: tensor tail table %v", tc.name, table != nil)
		}
		want := AppendBatch(nil, ref)
		for round := 0; round < 3; round++ {
			fc := frameCollate{samples: len(indices)}
			b := runBatchWorker(t, tc.spec, tc.mode, tc.dim, indices, fc.dst)
			fused := fc.box != nil
			var tensorAt unsafe.Pointer
			if fused {
				tensorAt = unsafe.Pointer(&(*fc.box)[batchTensorOffset(len(indices), len(b.Data.Shape))])
			}
			f := fc.frame(batchToWire(2, 9, b))
			if table != nil {
				// The frame is the batch in its pixel form; the client's
				// finish must turn it into ref.
				if b.Data.Dtype != tensor.Uint8 || len(b.Data.Shape) != 4 || b.Data.Shape[3] != 3 {
					t.Fatalf("%s round %d: collated %v into the frame, want uint8 [N,H,W,3]", tc.name, round, b.Data)
				}
				m, err := DecodeMessage(f.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				c := &Client{ack: HelloAck{Table: table}}
				if err := c.finish(m.(*Batch)); err != nil {
					t.Fatal(err)
				}
				if !sameBatch(m.(*Batch), ref) {
					t.Fatalf("%s round %d: the finished frame differs from the batch collated without one", tc.name, round)
				}
				want = AppendBatch(nil, batchToWire(2, 9, b))
			}
			if !bytes.Equal(f.Bytes(), want) {
				t.Fatalf("%s round %d: collate-into-frame differs from AppendBatch (%d vs %d bytes)", tc.name, round, f.Len(), len(want))
			}
			if f.Digest() != Digest(want) {
				t.Fatalf("%s round %d: frame digest %#x, want %#x", tc.name, round, f.Digest(), Digest(want))
			}
			switch {
			case tc.mode != pipeline.RealData && fused:
				t.Fatalf("%s: a meta batch took a frame buffer before it had a frame", tc.name)
			case tc.mode == pipeline.RealData && hostLittleEndian && !fused:
				t.Fatalf("%s: the collate did not go into the frame", tc.name)
			case fused && b.Data.U8 != nil && unsafe.Pointer(&b.Data.U8[0]) != tensorAt,
				fused && b.Data.F32 != nil && unsafe.Pointer(&b.Data.F32[0]) != tensorAt:
				t.Fatalf("%s: the batch tensor is not the frame's tensor region", tc.name)
			}
			f.Release()
		}
	}
	// A worker that fails after taking the buffer gives it back.
	fc := frameCollate{samples: 2}
	if fc.dst(tensor.Float32, []int{2, 3, 4, 4}) == nil && hostLittleEndian {
		t.Fatal("frameCollate declined a float32 destination on a little-endian host")
	}
	fc.discard()
	if fc.box != nil {
		t.Fatal("discard kept the frame buffer")
	}
	fc.discard() // idempotent
}

// hotFrameSpec is the benchmark's geometry: IC in batches of 32, which at
// MaterializeDim 256 is a 32 x 3 x 224 x 224 float32 tensor, a 19 MB frame.
func hotFrameSpec(samples int) workloads.Spec {
	spec := workloads.ICSpec(samples, 7)
	spec.BatchSize = 32
	spec.NumWorkers = 2
	return spec
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestHotPathBytesPerFrame pins the allocation budget of a served frame at
// both ends. Server: a warm batch cache streams 4.8 MB pixel frames to a
// reader that itself allocates nothing, and the process allocates under 1 KiB
// per frame. Client: consumeEpoch reads the same frames from a feeder that
// allocates nothing, digests, decodes and finishes each into a 19 MB float32
// batch, and allocates under 1 KiB per frame — the Batch header and its index
// slices, never a payload- or tensor-sized buffer.
func TestHotPathBytesPerFrame(t *testing.T) {
	spec := hotFrameSpec(512) // 16 frames per epoch, as in the benchmark
	srv := startCachedTestServer(t, spec, 1<<30, false)
	// The cache is warmed by hand with the frame the benchmark serves: the
	// hot path never looks inside a frame, so every key can share one.
	m := hotPixelBatch()
	f := encodeBatchFrame(m)
	for _, pb := range srv.epochPlan(0) {
		f.Retain()
		got, err := srv.cache.Acquire(BatchKey{Fingerprint: srv.specFP, GlobalID: pb.GlobalID}, nil,
			func() (*Frame, error) { return f, nil })
		if err != nil {
			t.Fatal(err)
		}
		got.Release()
	}
	f.Release()

	// A reader with no allocation of its own in the loop: fixed header and
	// payload buffers, frames told apart by their type byte.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, World: 1, Name: "hot-reader"})); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(conn, 0); err != nil {
		t.Fatal(err)
	}
	hdr, body := make([]byte, FrameHeaderSize), make([]byte, 5<<20)
	req := EncodeShardReq(ShardReq{Epoch: 0, IDs: planIDs(srv.planLen)})
	var frame []byte // a copy of the first batch frame read (during the warm-up epoch)
	readEpoch := func() (frames int) {
		if err := WriteFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		for ; frames < srv.planLen; frames++ {
			if _, err := io.ReadFull(conn, hdr); err != nil {
				t.Fatal(err)
			}
			p := body[:binary.BigEndian.Uint32(hdr[:4])]
			if _, err := io.ReadFull(conn, p); err != nil {
				t.Fatal(err)
			}
			if MsgType(p[0]) != MsgBatch {
				t.Fatalf("unexpected frame type %#x in the stream", p[0])
			}
			if frame == nil {
				frame = append([]byte(nil), p...)
			}
		}
		return frames
	}
	readEpoch() // warm-up: pools and per-session state settle
	before := totalAlloc()
	frames := 0
	for i := 0; i < 2; i++ {
		frames += readEpoch()
	}
	perFrame := float64(totalAlloc()-before) / float64(frames)
	t.Logf("server: %.0f B allocated per %d-byte cached frame (%d frames)", perFrame, len(frame), frames)
	if frames != 32 || !bytes.Equal(frame, AppendBatch(nil, m)) {
		t.Fatalf("read %d frames of %d bytes, want 32 copies of the %d-byte frame", frames, len(frame), batchWireSize(m))
	}
	if perFrame >= 1024 {
		t.Fatalf("server allocates %.0f B per cached frame, want < 1 KiB", perFrame)
	}

	// Client end: a feeder that writes the frame bytes it was given, and a
	// Client consuming them through the real consumeEpoch.
	payload := frame
	const perEpoch = 8
	ids := planIDs(perEpoch)
	c := NewClient(ClientConfig{Addr: feedFrames(t, payload, perEpoch), Name: "hot-client"})
	defer c.Close()
	var tensorSum float64
	onBatch := func(b *Batch, p []byte) {
		if len(b.F32) != 32*3*224*224 {
			t.Fatalf("the client handed on %s %v, want the finished float32 batch", b.Dtype, b.Shape)
		}
		tensorSum += float64(b.F32[len(b.F32)/2]) + float64(len(p))
	}
	if err := c.FetchShard(0, ids, onBatch); err != nil { // warm-up: dial, buffer
		t.Fatal(err)
	}
	before = totalAlloc()
	for i := 0; i < 2; i++ {
		if err := c.FetchShard(0, ids, onBatch); err != nil {
			t.Fatal(err)
		}
	}
	perFrame = float64(totalAlloc()-before) / (2 * perEpoch)
	t.Logf("client: %.0f B allocated per %d-byte frame", perFrame, len(payload))
	if perFrame >= 1024 {
		t.Fatalf("Client.consumeEpoch allocates %.0f B per frame, want < 1 KiB", perFrame)
	}
}

// feedFrames serves the client side of the protocol from canned bytes: after
// a handshake that hands over IC's tensor tail table, every request is
// answered with n copies of the batch frame payload, the k-th relabelled as
// global batch k — what a request for IDs 0..n-1 of payload's epoch asks
// for. Its loop allocates nothing, so a measurement around the client sees
// the client.
func feedFrames(t *testing.T, payload []byte, n int) string {
	t.Helper()
	payload = bytes.Clone(payload)
	table := hotFrameSpec(32).Compose(nil).TailTable(pipeline.RealData, false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := ReadFrame(conn, 0); err != nil {
			return
		}
		WriteFrame(conn, EncodeHelloAck(HelloAck{Version: ProtocolVersion, Mode: 1, Table: table}))
		hdr, req := make([]byte, FrameHeaderSize), make([]byte, 64)
		for {
			if _, err := io.ReadFull(conn, req[:FrameHeaderSize]); err != nil {
				return
			}
			if _, err := io.ReadFull(conn, req[:binary.BigEndian.Uint32(req)]); err != nil {
				return
			}
			for k := range n {
				binary.BigEndian.PutUint32(payload[5:9], uint32(k)) // the global batch id
				putFrameHeader(hdr, len(payload), Digest(payload))
				conn.Write(hdr)
				conn.Write(payload)
			}
		}
	}()
	return ln.Addr().String()
}

// TestClientViewsAliasAndCloneSurvives pins the callback lifetime contract
// from both sides: consecutive batches handed to onBatch are views over the
// same receive and finish buffers (so a consumer that stored one would see it
// change), and a Clone taken inside the callback still holds its batch's
// values — the local run's — after every later frame has arrived.
func TestClientViewsAliasAndCloneSurvives(t *testing.T) {
	spec := hotFrameSpec(96)
	// Small frames: the contract does not depend on size.
	srv := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: 48, Prefetch: 2, Logf: t.Logf})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "views"})
	defer c.Close()

	want := localEpochBatches(t, spec, 0, pipeline.RealData, 48)
	var views []*Batch // what the contract forbids keeping
	var clones []*Batch
	var payloadAt, tensorAt []unsafe.Pointer
	if _, err := c.Run(1, func(b *Batch, payload []byte) {
		views = append(views, b)
		clones = append(clones, b.Clone())
		payloadAt = append(payloadAt, unsafe.Pointer(&payload[0]))
		tensorAt = append(tensorAt, unsafe.Pointer(&b.F32[0]))
	}); err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("got %d batches, want 3", len(views))
	}
	for i := range views {
		// Every Clone still holds its own batch.
		if !sameBatch(clones[i], want[clones[i].GlobalID]) {
			t.Fatalf("batch %d: the Clone taken in the callback no longer matches the local run", i)
		}
		if i == 0 {
			continue
		}
		if payloadAt[i] != payloadAt[0] {
			t.Fatalf("frame %d was read into a different buffer than frame 0: the client is not reusing one", i)
		}
		if tensorAt[i] != tensorAt[0] {
			t.Fatalf("batch %d's F32 does not alias batch 0's: the client is not finishing into one buffer", i)
		}
	}
	// What the contract forbids, shown: the first batch's view, kept past its
	// callback, now reads as the last frame's tensor.
	if !reflect.DeepEqual(views[0].F32, clones[2].F32) {
		t.Fatal("a retained view of batch 0 does not show the last frame's tensor: it is not aliasing the buffer")
	}
}

// TestColdComputeAllocatesNoFrameSizedBuffer: preprocessing a batch on the
// plane allocates nothing on the Go heap that is half the size of one
// sample's float32 tensor (301 KB) or larger — no per-sample tensors since
// the tensor tail is the collate's, no staging tensor for the collate, no
// second buffer for the encode — and the frame itself is a mapping, not an
// allocation (under the race detector, an allocation inside mapFrameMem).
// Every allocation is sampled (MemProfileRate 1) and the large ones are named.
// The profile is the process's and cumulative, so only what a stack allocated
// after the snapshot taken before this test's server starts is judged: an
// earlier test's plane.compute is not this one's.
func TestColdComputeAllocatesNoFrameSizedBuffer(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian hosts collate into a tensor and convert")
	}
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	before := memProfile()

	spec := hotFrameSpec(64)
	srv := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: 256, Prefetch: 2, Logf: t.Logf})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "cold"})
	defer c.Close()
	if _, err := c.Run(1, nil); err != nil {
		t.Fatal(err)
	}

	const sampleBytes = 3 * 224 * 224 * 4
	for k, r := range memProfile() {
		objs := r.AllocObjects - before[k].AllocObjects
		if objs == 0 || k.size < sampleBytes/2 {
			continue
		}
		var stack strings.Builder
		inCompute, inSource := false, false
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			fmt.Fprintf(&stack, "\n\t%s", fr.Function)
			// This test's client and any concurrent test's reference
			// encoders are in the profile too, and are not the claim.
			inCompute = inCompute || strings.Contains(fr.Function, "serve.(*plane).compute")
			inSource = inSource || strings.HasSuffix(fr.Function, "serve.mapFrameMem")
			if !more {
				break
			}
		}
		if inCompute && !inSource {
			t.Errorf("plane.compute made %d allocation(s) of ~%d bytes:%s",
				objs, k.size, stack.String())
		}
	}
	if st := frameStats(); st.Maps < 1 {
		t.Fatalf("no frame buffer was ever mapped: %+v", st)
	}
}

// profileKey identifies one heap-profile bucket: the runtime keeps one per
// allocation stack and object size.
type profileKey struct {
	stack [32]uintptr
	size  int64
}

// memProfile returns the process's cumulative heap profile by bucket. The
// profile lags the allocator by up to two collections, so it collects twice
// first.
func memProfile() map[profileKey]runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 4096)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, 2*n)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[profileKey]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		k := profileKey{stack: r.Stack0}
		if r.AllocObjects > 0 {
			k.size = r.AllocBytes / r.AllocObjects
		}
		out[k] = r
	}
	return out
}
