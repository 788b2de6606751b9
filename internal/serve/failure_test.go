package serve

import (
	"net"
	"testing"
	"time"

	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
	"lotus/internal/testutil"
)

// TestHelloDeadlineCutsStalledHandshake pins the handshake-timeout fix: a
// connection that dials but never completes a Hello frame (half a header,
// then silence) used to pin its handler goroutine on a blocking read. The
// server must now cut the session at helloTimeout with an Error frame or a
// close, and stay fully functional for well-formed clients.
func TestHelloDeadlineCutsStalledHandshake(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	defer testutil.CheckFrames(t, FramesInUse)()

	spec := loopbackSpec()
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2, Logf: t.Logf})
	srv.helloTimeout = 150 * time.Millisecond
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// expectCut waits for the server to terminate the connection: either an
	// Error frame followed by close, or a bare close. Anything else — in
	// particular a read that outlives the deadline by a wide margin — means
	// the handler goroutine is stuck.
	expectCut := func(conn net.Conn, context string) {
		t.Helper()
		start := time.Now()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		payload, err := ReadFrame(conn, 0)
		if err == nil {
			msg, derr := DecodeMessage(payload)
			if derr != nil {
				t.Fatalf("%s: undecodable server reply: %v", context, derr)
			}
			if _, ok := msg.(ErrorMsg); !ok {
				t.Fatalf("%s: server replied %T, want ErrorMsg or close", context, msg)
			}
			if _, err := ReadFrame(conn, 0); err == nil {
				t.Fatalf("%s: server kept talking after Error", context)
			}
		}
		// 150ms deadline plus generous scheduling slack; the pre-fix server
		// sat on this read for its default 10s (or forever with no default).
		if waited := time.Since(start); waited > 3*time.Second {
			t.Fatalf("%s: server took %v to cut a stalled handshake", context, waited)
		}
	}

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	// Dial and say nothing at all.
	conn := dial()
	expectCut(conn, "silent dial")
	conn.Close()

	// Half a frame header, then stall: ReadFrame is mid-read when the
	// deadline fires, the nastier variant of the same bug.
	conn = dial()
	conn.Write([]byte{0x00, 0x00})
	expectCut(conn, "partial header")
	conn.Close()

	// A full header promising a payload that never arrives.
	conn = dial()
	conn.Write([]byte{0x00, 0x00, 0x00, 0x10})
	expectCut(conn, "header without payload")
	conn.Close()

	// The server must still serve a well-formed client afterwards.
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "after-stalls"})
	defer c.Close()
	stats, err := c.Run(1, nil)
	if err != nil {
		t.Fatalf("clean client after stalled handshakes: %v", err)
	}
	if stats.Batches != 10 {
		t.Fatalf("clean client got %d batches, want 10", stats.Batches)
	}
}

// TestHelloDeadlineDoesNotClipSlowButValidHandshake: a client that takes a
// beat (but less than helloTimeout) to send Hello must not be rejected, and
// the deadline must be cleared afterwards so mid-session idleness between
// epoch requests is allowed.
func TestHelloDeadlineDoesNotClipSlowButValidHandshake(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	defer testutil.CheckFrames(t, FramesInUse)()

	spec := loopbackSpec()
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2, Logf: t.Logf})
	srv.helloTimeout = 500 * time.Millisecond
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Dawdle inside the deadline, then hand over a valid Hello.
	time.Sleep(200 * time.Millisecond)
	if err := WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, Rank: 0, World: 1})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("slow-but-valid handshake rejected: %v", err)
	}
	if msg, err := DecodeMessage(payload); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(HelloAck); !ok {
		t.Fatalf("server replied %T, want HelloAck", msg)
	}

	// Idle past helloTimeout mid-session: the handshake deadline must not
	// leak into the request loop.
	time.Sleep(700 * time.Millisecond)
	if err := WriteFrame(conn, EncodeShardReq(ShardReq{Epoch: 0, IDs: []int{0}})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(conn, 0); err != nil {
		t.Fatalf("idle session was cut by a leaked handshake deadline: %v", err)
	}
	WriteFrame(conn, EncodeBye())
}

// TestSeveredSessionInterruptsInjectedStall pins the straggler-teardown fix:
// a session whose socket dies mid-epoch used to be discovered only at the
// next write — and with a degraded worker mid-stall, that write could be a
// full injected stall away, pinning the producer pipeline (and the server's
// drain) for the stall's duration. The connection watcher must now notice
// the dead socket immediately, and the stall interrupt must wake the
// sleeping worker, so the epoch aborts in seconds rather than the 30s the
// fault injector dictates.
func TestSeveredSessionInterruptsInjectedStall(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	defer testutil.CheckFrames(t, FramesInUse)()

	spec := loopbackSpec()
	inj := faultinject.New(faultinject.Spec{Seed: 1, StallNth: 1, WorkerStall: 30 * time.Second})
	srv := New(Config{
		Spec: spec, Mode: pipeline.Simulated, EmulateTime: true, Prefetch: 2,
		Faults: inj, Logf: t.Logf,
	})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, Rank: 0, World: 1})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if payload, err := ReadFrame(conn, 0); err != nil {
		t.Fatal(err)
	} else if msg, err := DecodeMessage(payload); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(HelloAck); !ok {
		t.Fatalf("server replied %T, want HelloAck", msg)
	}
	if err := WriteFrame(conn, EncodeShardReq(ShardReq{Epoch: 0, IDs: planIDs(srv.planLen)})); err != nil {
		t.Fatal(err)
	}
	// Give the epoch time to dispatch: by now every worker is asleep inside
	// its injected 30s stall. Then vanish without a Bye.
	time.Sleep(300 * time.Millisecond)
	conn.Close()

	// The abort must land well inside the injected stall. Pre-fix, the
	// severed socket sat undiscovered until the first post-stall write.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv.Metrics().Snapshot(time.Now(), 0).EpochsAborted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("severed session's epoch was not aborted within 10s of the disconnect")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
