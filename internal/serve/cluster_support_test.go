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

	// An empty shard request is answered with a bare EpochEnd.
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

// TestClientAddrsFallback: with a multi-entry endpoint list a dead first
// endpoint costs one dial inside Connect — not a retry — and a mid-run
// endpoint death fails over to the surviving replica byte-identically.
func TestClientAddrsFallback(t *testing.T) {
	spec := loopbackSpec()
	srvA := startTestServer(t, spec, false)
	srvB := startTestServer(t, spec, false)
	expected := localEpochFrames(t, spec, 0)

	// Dead-first-endpoint: reserve an address and close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	var got [][]byte
	c := NewClient(ClientConfig{
		Addrs: []string{deadAddr, srvB.Addr()},
		Name:  "fallback", DialTimeout: 2 * time.Second,
	})
	stats, err := c.Run(1, func(b *Batch, payload []byte) {
		got = append(got, append([]byte(nil), payload...))
	})
	if err != nil {
		t.Fatalf("run with dead first endpoint: %v", err)
	}
	if stats.Retries != 0 {
		t.Fatalf("dead first endpoint consumed %d retries; fallback belongs inside Connect", stats.Retries)
	}
	if c.Addr() != srvB.Addr() {
		t.Fatalf("client settled on %s, want the live replica %s", c.Addr(), srvB.Addr())
	}
	for i, p := range got {
		if !bytes.Equal(p, expected[i]) {
			t.Fatalf("frame %d from fallback replica not byte-identical", i)
		}
	}
	c.Close()

	// Mid-run endpoint death: connected to A, then A dies between epochs;
	// the retry path must rotate to B and re-fetch cleanly.
	c2 := NewClient(ClientConfig{
		Addrs: []string{srvA.Addr(), srvB.Addr()},
		Name:  "failover", Sleep: func(time.Duration) {},
	})
	defer c2.Close()
	if err := c2.Connect(); err != nil {
		t.Fatal(err)
	}
	if c2.Addr() != srvA.Addr() {
		t.Fatalf("connected to %s, want first endpoint %s", c2.Addr(), srvA.Addr())
	}
	srvA.Close()
	var got2 [][]byte
	stats2, err := c2.Run(1, func(b *Batch, payload []byte) {
		got2 = append(got2, append([]byte(nil), payload...))
	})
	if err != nil {
		t.Fatalf("run across endpoint death: %v", err)
	}
	if stats2.Retries == 0 {
		t.Fatal("endpoint death was invisible — the stale connection should have failed once")
	}
	if c2.Addr() != srvB.Addr() {
		t.Fatalf("failover settled on %s, want %s", c2.Addr(), srvB.Addr())
	}
	if len(got2) != len(expected) {
		t.Fatalf("failover epoch delivered %d frames, want %d", len(got2), len(expected))
	}
	for i, p := range got2 {
		if !bytes.Equal(p, expected[i]) {
			t.Fatalf("frame %d after failover not byte-identical", i)
		}
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
		snap := srv.Metrics().Snapshot(time.Now(), srv.Ring().Total())
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
