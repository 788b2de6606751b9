package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lotus/internal/rng"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// goldenStream is the fixed three-frame stream TestStreamSumGolden pins.
func goldenStream() [][]byte {
	b, c := make([]byte, 1000), make([]byte, 70001)
	for i := range b {
		b[i] = byte(i)
	}
	for i := range c {
		c[i] = byte(i*31 + 7)
	}
	return [][]byte{[]byte("lotus"), b, c}
}

func streamSumOf(frames [][]byte) uint64 {
	sum := NewStreamSum()
	for _, p := range frames {
		sum.AddPayload(p)
	}
	return sum.Sum64()
}

// TestStreamSumGolden pins the one definition of the stream checksum. The
// constants were computed outside Go (bitwise reflected CRC, polynomial
// 0x82F63B78; byte-serial FNV-1a), so they hold whatever CRC path hash/crc32
// picks on the machine running the test; CI also runs this test with the
// SSE4.2 path switched off. Changing any of them is a protocol change:
// bump ProtocolVersion.
func TestStreamSumGolden(t *testing.T) {
	frames := goldenStream()
	// A copy of the Castagnoli table is not the table hash/crc32 recognises
	// by address, so Checksum over it takes the portable byte-at-a-time loop.
	generic := *crc32.MakeTable(crc32.Castagnoli)
	for i, want := range []uint32{0x978aa425, 0x1a318e30, 0x59e9e781} {
		if got := Digest(frames[i]); got != want {
			t.Errorf("Digest(frame %d) = %#x, want %#x", i, got, want)
		}
		if got := crc32.Checksum(frames[i], &generic); got != want {
			t.Errorf("portable CRC32C(frame %d) = %#x, want %#x", i, got, want)
		}
	}
	if got, want := NewStreamSum().Sum64(), uint64(14695981039346656037); got != want {
		t.Errorf("empty stream sums to %#x, want the FNV-1a offset basis %#x", got, want)
	}
	if got, want := streamSumOf(frames), uint64(0x316851cbd97333cb); got != want {
		t.Errorf("StreamSum(golden stream) = %#x, want %#x", got, want)
	}
	// Add from a carried digest is the same fold as AddPayload from bytes:
	// the server's memoised path and the client's hashing path agree.
	sum := NewStreamSum()
	for _, p := range frames {
		sum.Add(len(p), Digest(p))
	}
	if sum.Sum64() != streamSumOf(frames) {
		t.Error("Add(len, Digest) and AddPayload disagree")
	}
}

// TestStreamSumDetectsDamage: every way a stream can differ from the one the
// server sent — one flipped byte anywhere, two frames swapped, a frame
// dropped, duplicated or truncated — changes the sum.
func TestStreamSumDetectsDamage(t *testing.T) {
	r := rng.New(15, "serve/streamsum")
	for trial := 0; trial < 200; trial++ {
		frames := make([][]byte, 2+r.Intn(6))
		for i := range frames {
			frames[i] = make([]byte, 1+r.Intn(4096))
			for j := range frames[i] {
				frames[i][j] = byte(r.Intn(256))
			}
		}
		clean := streamSumOf(frames)
		clone := func() [][]byte {
			out := make([][]byte, len(frames))
			for i, p := range frames {
				out[i] = append([]byte(nil), p...)
			}
			return out
		}
		i, j := r.Intn(len(frames)), r.Intn(len(frames)-1)
		if j >= i {
			j++ // a different frame
		}

		flipped := clone()
		flipped[i][r.Intn(len(flipped[i]))] ^= byte(1 + r.Intn(255))
		swapped := clone()
		swapped[i], swapped[j] = swapped[j], swapped[i]
		dropped := append(clone()[:i], clone()[i+1:]...)
		duplicated := append(clone()[:i+1], clone()[i:]...)
		truncated := clone()
		truncated[i] = truncated[i][:r.Intn(len(truncated[i]))]

		for name, damaged := range map[string][][]byte{"flipped byte": flipped, "swapped frames": swapped,
			"dropped frame": dropped, "duplicated frame": duplicated, "truncated frame": truncated} {
			if name == "swapped frames" && string(frames[i]) == string(frames[j]) {
				continue
			}
			if streamSumOf(damaged) == clean {
				t.Fatalf("trial %d: %s (frame %d of %d) left the stream sum unchanged", trial, name, i, len(frames))
			}
		}
	}
}

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

	pass(2)
	cold := srv.Metrics().Snapshot(time.Now(), 0)
	if cold.FramesDigested != 16 || cold.BatchesSent != 16 {
		t.Fatalf("cold pass: %d frames digested, %d sent; want 16 and 16", cold.FramesDigested, cold.BatchesSent)
	}
	if cold.DigestBytes != cold.BytesSent-FrameHeaderSize*cold.BatchesSent {
		t.Fatalf("cold pass: digest_bytes %d, want the %d payload bytes sent", cold.DigestBytes, cold.BytesSent-FrameHeaderSize*cold.BatchesSent)
	}
	pass(1)
	hot := srv.Metrics().Snapshot(time.Now(), 0)
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
// own framing: that is what lets an old binary read the refusal.
func expectHelloRefused(t *testing.T, srv *Server, version int) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := EncodeHello(Hello{Version: version, Rank: 0, World: 1, Name: "old-peer"})
	if _, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(hello))), hello...)); err != nil {
		t.Fatal(err)
	}
	readLegacy := func() ([]byte, error) {
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return nil, err
		}
		payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		_, err := io.ReadFull(conn, payload)
		return payload, err
	}
	payload, err := readLegacy()
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
	if _, err := readLegacy(); err == nil {
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
// payload, and a pixel frame as the float32 tensor it expects. Both are
// refused the same way, before any frame.
func TestV2HelloRefused(t *testing.T) {
	srv := startTestServer(t, loopbackSpec(), false)
	expectHelloRefused(t, srv, 2)
	expectHelloRefused(t, srv, 3)
}

// TestCurrentHelloWithBadDigestRefused: a version 4 Hello whose payload does
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
