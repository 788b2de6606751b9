package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// TestFrameBufSlack: a pooled frame buffer is at most 12.5% larger than the
// frame in it, at every size a frame can have, and a released buffer is the
// one the next equal-size frame gets (frame.go's zero-steady-state-allocation
// discipline).
func TestFrameBufSlack(t *testing.T) {
	for n := 1 << 10; n <= 64<<20; n += 1 + n/37 {
		if c := frameBufClass(n); c < n || c > n+n/8 {
			t.Fatalf("frameBufClass(%d) = %d, want within [n, 1.125n]", n, c)
		}
	}
	const n = 19_267_700 // a 32 x 3 x 224 x 224 float32 batch frame, the benchmark's
	box := frameBufFor(n)
	if c := cap(*box); c < n || c > n+n/8 {
		t.Fatalf("frameBufFor(%d) has cap %d, want within [n, 1.125n]", n, c)
	}
	// sync.Pool may drop a Put (under -race it drops one in four on purpose),
	// so reuse is asserted over a few rounds rather than on the first.
	reused := false
	for round := 0; round < 32 && !reused; round++ {
		newFrame(box, 0).Release()
		next := frameBufFor(n)
		reused = next == box
		box = next
	}
	if !reused {
		t.Fatal("a released frame buffer was never handed to the next equal-size frame")
	}
}

// TestHotServeHashesNothing is the exact-count form of the tentpole: the
// server digests each frame once, when it encodes it, and a cache hit folds
// the digest the frame carries. Epoch 0 is served cold to two rank/world
// sessions (16 frames, 16 digest passes), then twice more, whole, to two
// full-plan sessions out of the warm cache: 32 more frames on the wire, zero
// more passes — and both clients' own per-payload CRC checks still pass.
func TestHotServeHashesNothing(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := workloads.ICSpec(1024, 7)
	spec.BatchSize = 64 // 16 batches per epoch
	spec.NumWorkers = 2
	srv := startCachedTestServer(t, spec, 64<<20, false)

	pass := func(world int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for k := range errs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				c := NewClient(ClientConfig{Addr: srv.Addr(), Rank: k % world, World: world,
					Name: fmt.Sprintf("hot-%d-%d", world, k)})
				defer c.Close()
				_, errs[k] = c.Run(1, nil)
			}(k)
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("world %d client %d: %v", world, k, err)
			}
		}
	}

	// A frame is credited after its write returns, which may be after the
	// client has read it: wait for the last credits to land.
	settled := func(sent int64) MetricsSnapshot {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			snap := srv.Metrics().Snapshot(time.Now(), 0)
			if snap.BatchesSent >= sent || time.Now().After(deadline) {
				return snap
			}
		}
	}

	pass(2)
	cold := settled(16)
	if cold.FramesDigested != 16 || cold.BatchesSent != 16 {
		t.Fatalf("cold pass: %d frames digested, %d sent; want 16 and 16", cold.FramesDigested, cold.BatchesSent)
	}
	if cold.DigestBytes != cold.BytesSent-FrameHeaderSize*cold.BatchesSent {
		t.Fatalf("cold pass: digest_bytes %d, want the %d payload bytes sent", cold.DigestBytes, cold.BytesSent-FrameHeaderSize*cold.BatchesSent)
	}
	pass(1)
	hot := settled(16 + 32)
	if d := hot.FramesDigested - cold.FramesDigested; d != 0 {
		t.Fatalf("hot pass digested %d frames, want 0", d)
	}
	if hot.DigestBytes != cold.DigestBytes {
		t.Fatalf("hot pass hashed %d bytes, want 0", hot.DigestBytes-cold.DigestBytes)
	}
	if d := hot.BatchesSent - cold.BatchesSent; d != 32 {
		t.Fatalf("hot pass sent %d frames, want 32", d)
	}
}

// expectHelloRefused dials srv as a peer speaking an old protocol version and
// requires the clean refusal: one fatal Error frame naming both versions,
// then a closed connection — no session, not one batch byte. Every version
// before 4 framed without the digest word, and the peer is spoken to in its
// own framing: that is what lets an old binary read the refusal. A version 4
// peer frames like this one.
func expectHelloRefused(t *testing.T, srv *Server, version int) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := EncodeHello(Hello{Version: version, Rank: 0, World: 1, Name: "old-peer"})
	readFrame := func() ([]byte, error) { return ReadFrame(conn, 0) }
	if version >= 4 {
		err = WriteFrame(conn, hello)
	} else {
		_, err = conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(hello))), hello...))
		readFrame = func() ([]byte, error) {
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return nil, err
			}
			payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			_, err := io.ReadFull(conn, payload)
			return payload, err
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame()
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	msg, err := DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := msg.(ErrorMsg)
	if !ok {
		t.Fatalf("server answered Hello{Version: %d} with %T, want ErrorMsg", version, msg)
	}
	want := fmt.Sprintf("protocol version %d, server speaks %d", version, ProtocolVersion)
	if e.Code != CodeFatal || !strings.Contains(e.Message, want) {
		t.Fatalf("refusal %+v, want a fatal version error naming both versions", e)
	}
	if _, err := readFrame(); err == nil {
		t.Fatalf("server kept the v%d session open after refusing it", version)
	}
	if snap := srv.Metrics().Snapshot(time.Now(), 0); snap.SessionsTotal != 0 || snap.BatchesSent != 0 {
		t.Fatalf("v%d peer opened %d sessions and was sent %d batches, want 0 and 0", version, snap.SessionsTotal, snap.BatchesSent)
	}
}

// TestHelloV1RefusedAtHandshake: a peer that still speaks protocol version 1
// — whose stream checksum is the other definition — is told so in a fatal
// Error frame at Hello, which a client never retries; it does not get to
// stream an epoch and fail its checksum four retries later.
func TestHelloV1RefusedAtHandshake(t *testing.T) {
	expectHelloRefused(t, startTestServer(t, loopbackSpec(), false), 1)
}

// TestV2HelloRefused: a version 2 peer would parse a version 3 Batch frame's
// alignment padding as tensor bytes, and its big-endian floats are not this
// server's; a version 3 peer would read every frame header's digest word as
// payload, and a pixel frame as the float32 tensor it expects; a version 4
// peer would ask for its rank's shard without naming it and wait for an
// end-of-epoch frame that never comes. All three are refused the same way,
// before any frame: the first two in their own framing, the third in the
// framing it shares with version 5.
func TestV2HelloRefused(t *testing.T) {
	srv := startTestServer(t, loopbackSpec(), false)
	expectHelloRefused(t, srv, 2)
	expectHelloRefused(t, srv, 3)
	expectHelloRefused(t, srv, 4)
}

// TestCurrentHelloWithBadDigestRefused: a current Hello whose payload does
// not match its header's digest is corrupt, not old — the server refuses it
// with a clean Error in the current framing.
func TestCurrentHelloWithBadDigestRefused(t *testing.T) {
	srv := startTestServer(t, loopbackSpec(), false)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := EncodeHello(Hello{Version: ProtocolVersion, World: 1, Name: "bent"})
	if err := writeFrame(conn, hello, Digest(hello)^1); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	if msg, err := DecodeMessage(payload); err != nil || !strings.Contains(fmt.Sprint(msg), "digest") {
		t.Fatalf("server answered a corrupt Hello with %v (%v), want an Error naming the digest", msg, err)
	}
}
