package serve

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// TestShardReqServing: an explicit batch-ID subset is streamed in request
// order, each frame byte-identical to the full-plan ground truth — the
// primitive a cluster router builds failover on.
func TestShardReqServing(t *testing.T) {
	spec := loopbackSpec()
	srv := startTestServer(t, spec, false)
	expected := localEpochFrames(t, spec, 0)

	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "shard-req"})
	defer c.Close()
	want := []int{7, 2, 5}
	var gotIDs []int
	var gotPayloads [][]byte
	if err := c.FetchShard(0, want, func(b *Batch, payload []byte) {
		gotIDs = append(gotIDs, b.GlobalID)
		gotPayloads = append(gotPayloads, append([]byte(nil), payload...))
	}); err != nil {
		t.Fatalf("FetchShard: %v", err)
	}
	if len(gotIDs) != len(want) {
		t.Fatalf("got %d batches, want %d", len(gotIDs), len(want))
	}
	for i, id := range want {
		if gotIDs[i] != id {
			t.Fatalf("position %d: batch %d, want %d (request order must be preserved)", i, gotIDs[i], id)
		}
		if !bytes.Equal(gotPayloads[i], expected[id]) {
			t.Fatalf("batch %d: shard frame differs from full-epoch frame", id)
		}
	}

	// The same connection serves a second, disjoint shard request.
	var second []int
	if err := c.FetchShard(0, []int{0, 9}, func(b *Batch, _ []byte) {
		second = append(second, b.GlobalID)
	}); err != nil {
		t.Fatalf("second FetchShard on same session: %v", err)
	}
	if len(second) != 2 || second[0] != 0 || second[1] != 9 {
		t.Fatalf("second shard got %v, want [0 9]", second)
	}

	// An empty shard costs no round trip: not even to a server that is gone.
	srv.Close()
	if err := c.FetchShard(0, nil, func(b *Batch, _ []byte) {
		t.Errorf("empty shard streamed batch %d", b.GlobalID)
	}); err != nil {
		t.Fatalf("empty FetchShard: %v", err)
	}
}

// TestShardReqRejectsInvalidIDs: out-of-plan and duplicate IDs are answered
// with a clean Error frame, and the server survives to serve a correct
// request next.
func TestShardReqRejectsInvalidIDs(t *testing.T) {
	spec := loopbackSpec()
	srv := startTestServer(t, spec, false)

	for _, tc := range []struct {
		name string
		ids  []int
	}{
		{"out of range", []int{0, 99}},
		{"negative", []int{-1}},
		{"duplicate", []int{3, 3}},
	} {
		c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "bad-shard"})
		err := c.FetchShard(0, tc.ids, nil)
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v, want ServerError", tc.name, err)
		}
		c.Close()
	}

	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "good-shard"})
	defer c.Close()
	got := 0
	if err := c.FetchShard(0, []int{1, 4}, func(*Batch, []byte) { got++ }); err != nil {
		t.Fatalf("valid shard after rejections: %v", err)
	}
	if got != 2 {
		t.Fatalf("valid shard streamed %d batches, want 2", got)
	}
}

// TestReconnectMetrics: a returning (name, rank) identity is counted as a
// reconnect on the server totals and on its session row — the server-side
// observable of a client retry loop.
func TestReconnectMetrics(t *testing.T) {
	spec := loopbackSpec()
	srv := startTestServer(t, spec, false)

	dial := func() *Client {
		c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "trainer", Rank: 0})
		if err := c.Connect(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := dial()
	c1.Close()
	c2 := dial()
	defer c2.Close()
	// A distinct identity is not a reconnect.
	c3 := NewClient(ClientConfig{Addr: srv.Addr(), Name: "other", Rank: 0})
	if err := c3.Connect(); err != nil {
		t.Fatal(err)
	}
	defer c3.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := srv.Metrics().Snapshot(time.Now(), srv.ring.Total())
		if snap.Reconnects == 1 {
			found := false
			for _, s := range snap.Sessions {
				if s.Name == "trainer" && s.Reconnects == 1 {
					found = true
				}
				if s.Name == "other" && s.Reconnects != 0 {
					t.Fatalf("fresh identity counted as reconnect: %+v", s)
				}
			}
			if !found {
				t.Fatalf("no live session row carries the reconnect count: %+v", snap.Sessions)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("reconnects_total = %d, want 1", snap.Reconnects)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConnectSilentListenerTimesOut: a listener that accepts and never
// answers — a black-holed node — fails Connect within the dial timeout. The
// kernel completes the TCP handshake on the listener's backlog, so the dial
// succeeds and only the handshake's deadline ends the wait for a HelloAck.
func TestConnectSilentListenerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const timeout = 200 * time.Millisecond
	c := NewClient(ClientConfig{Addr: ln.Addr().String(), Name: "silent", DialTimeout: timeout})
	defer c.Close()
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- c.Connect() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Connect to a silent listener succeeded")
		}
		if d := time.Since(start); d > 2*timeout {
			t.Fatalf("Connect gave up after %v, want within %v", d, 2*timeout)
		}
	case <-time.After(10 * timeout):
		t.Fatal("Connect to a silent listener still blocked: the handshake has no deadline")
	}
}
