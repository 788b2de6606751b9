package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/testutil"
)

// The router's liveness is its own traffic: a failed fetch (after the
// same-node retry) or a failed plan handshake marks a node down, and only the
// dial every down node gets at an epoch's start brings it back.

// TestClusterSilentMember: a member that accepts connections and never
// answers — a black-holed address that only a timeout discovers — is marked
// down within the dial timeout, and the epochs finish on the other two nodes,
// exactly once and byte-identical to ground truth. The silent member sits
// first in member-ID order (the plan handshake dials it) or last (a round-0
// fetch dials it).
func TestClusterSilentMember(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, serve.FramesInUse))
	spec := clusterSpec()
	want := groundTruth(t, spec, 2)
	for _, silent := range []int{0, 2} {
		t.Run(fmt.Sprintf("node%d", silent), func(t *testing.T) {
			// Never accepted: the kernel completes every TCP handshake on the
			// backlog, so dials succeed and the Hello goes unanswered.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			var nodes []Node
			for i := range 3 {
				addr := ln.Addr().String()
				if i != silent {
					addr = startNode(t, spec, nil).Addr()
				}
				nodes = append(nodes, Node{ID: fmt.Sprintf("node%d", i), Addr: addr})
			}
			c, err := New(Config{Nodes: nodes, Name: "silent-member", DialTimeout: 200 * time.Millisecond,
				Sleep: func(time.Duration) {}, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sink := newFrameSink()
			done := make(chan error, 1)
			var stats *Stats
			go func() {
				var err error
				stats, err = c.Run(2, sink.onBatch)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("a silent member hung the router")
			}
			for e := range 2 {
				sink.verifyEpoch(t, e, want[e])
			}
			id := nodes[silent].ID
			if stats.PerNode[id] != 0 || c.Alive()[id] {
				t.Fatalf("silent member served %d batches, alive %v", stats.PerNode[id], c.Alive()[id])
			}
		})
	}
}

// TestClusterNodeRejoinsAtEpochStart: a node killed mid-epoch stays down for
// the rest of that epoch even once it is back — here it restarts on its
// address as soon as its retry has failed, before the failover round, and
// that round still routes it nothing. The next epoch's start dials it, and
// it serves its whole shard in a single round.
func TestClusterNodeRejoinsAtEpochStart(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, serve.FramesInUse))
	spec := clusterSpec()
	want := groundTruth(t, spec, 2)
	victimID, victimShard := victimWithLargestShard([]Node{{ID: "node0"}, {ID: "node1"}, {ID: "node2"}}, len(want[0]))
	srvs := make([]*serve.Server, 3)
	var kill *killSwitch
	for i := range srvs {
		var inj *faultinject.Injector
		if fmt.Sprintf("node%d", i) == victimID {
			inj = faultinject.New(faultinject.Spec{Seed: 7, DropFrame: 2})
		}
		srvs[i] = startNode(t, spec, inj)
		if inj != nil {
			kill = &killSwitch{victim: victimID, srv: srvs[i]}
		}
	}
	nodes := testNodes(srvs)
	var victimAddr string
	for _, n := range nodes {
		if n.ID == victimID {
			victimAddr = n.Addr
		}
	}
	restart := func() {
		srv := serve.New(serve.Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2})
		if err := srv.Start(victimAddr, ""); err != nil {
			t.Errorf("restart %s on %s: %v", victimID, victimAddr, err)
			return
		}
		t.Cleanup(func() { srv.Close() })
	}
	c, err := New(Config{Nodes: nodes, Name: "rejoin", Logf: t.Logf,
		Sleep: func(time.Duration) {},
		OnFetchError: func(node string, epoch, attempt int, err error) {
			kill.onFetchError(node, epoch, attempt, err)
			if node == victimID && attempt == 1+nodeRetries {
				restart()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sink := newFrameSink()
	st0, err := c.RunEpoch(0, sink.onBatch)
	if err != nil {
		t.Fatal(err)
	}
	sink.verifyEpoch(t, 0, want[0])
	if st0.NodeFailures != 1 || st0.Rounds != 2 || st0.PerNode[victimID] != 1 {
		t.Fatalf("epoch 0: failures=%d rounds=%d victim served %d; want 1, 2 and only its frame before the cut",
			st0.NodeFailures, st0.Rounds, st0.PerNode[victimID])
	}
	if c.Alive()[victimID] {
		t.Fatal("the killed node is up again before the next epoch's start")
	}

	st1, err := c.RunEpoch(1, sink.onBatch)
	if err != nil {
		t.Fatal(err)
	}
	sink.verifyEpoch(t, 1, want[1])
	if st1.Rounds != 1 || st1.NodeFailures != 0 || st1.Rerouted != 0 || st1.PerNode[victimID] != victimShard {
		t.Fatalf("epoch 1: rounds=%d failures=%d rerouted=%d, rejoined node served %d; want 1, 0, 0 and its shard of %d",
			st1.Rounds, st1.NodeFailures, st1.Rerouted, st1.PerNode[victimID], victimShard)
	}
}

// cutProxy stands in front of a serve node and lets each connection carry
// the handshake and the first frame of its stream, then cuts it: a node whose
// every dial and handshake succeeds and whose every stream breaks.
type cutProxy struct {
	ln      net.Listener
	target  string
	accepts atomic.Int64
	wg      sync.WaitGroup
}

func startCutProxy(t *testing.T, target string) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, target: target}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepts.Add(1)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.pipe(down)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *cutProxy) pipe(down net.Conn) {
	defer down.Close()
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer up.Close()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		io.Copy(up, down)
		up.Close()
	}()
	var hdr [serve.FrameHeaderSize]byte
	for range 2 { // the HelloAck, then the stream's first frame
		if _, err := io.ReadFull(up, hdr[:]); err != nil {
			return
		}
		if _, err := down.Write(hdr[:]); err != nil {
			return
		}
		if _, err := io.CopyN(down, up, int64(binary.BigEndian.Uint32(hdr[:4]))); err != nil {
			return
		}
	}
}

// TestClusterNoRejoinMidEpoch: a node that accepts dials but breaks every
// stream fails its fetch and its retry, and is then routed nothing for the
// rest of the epoch — no dial reaches it in the failover round, so the epoch
// completes in two rounds. It is dialled again only at the next epoch's
// start, where the same happens once more.
func TestClusterNoRejoinMidEpoch(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, serve.FramesInUse))
	spec := clusterSpec()
	want := groundTruth(t, spec, 2)
	victimID, _ := victimWithLargestShard([]Node{{ID: "node0"}, {ID: "node1"}, {ID: "node2"}}, len(want[0]))
	var proxy *cutProxy
	nodes := make([]Node, 3)
	for i := range nodes {
		nodes[i] = Node{ID: fmt.Sprintf("node%d", i), Addr: startNode(t, spec, nil).Addr()}
		if nodes[i].ID == victimID {
			proxy = startCutProxy(t, nodes[i].Addr)
			nodes[i].Addr = proxy.ln.Addr().String()
		}
	}
	// The router logs "rerouting" at the start of each failover round, from
	// the epoch's own goroutine: the dial count there is the failover round's.
	var dialsAtReroute []int64
	logf := func(format string, args ...any) {
		if strings.Contains(format, "rerouting") {
			dialsAtReroute = append(dialsAtReroute, proxy.accepts.Load())
		}
		t.Logf(format, args...)
	}
	c, err := New(Config{Nodes: nodes, Name: "no-rejoin", Logf: logf, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sink := newFrameSink()
	for epoch := range 2 {
		st, err := c.RunEpoch(epoch, sink.onBatch)
		if err != nil {
			t.Fatal(err)
		}
		sink.verifyEpoch(t, epoch, want[epoch])
		// Two attempts, one frame each before the cut; then nothing.
		if st.Rounds != 2 || st.NodeFailures != 1 || st.PerNode[victimID] != 2 || st.Ignored != 0 {
			t.Fatalf("epoch %d: rounds=%d failures=%d broken node served %d ignored=%d; want 2, 1, 2, 0",
				epoch, st.Rounds, st.NodeFailures, st.PerNode[victimID], st.Ignored)
		}
		// Epoch 0 dials it twice (the first attempt, the retry), epoch 1
		// once at its start and once for the retry; no round-2 dial either time.
		if got, want := proxy.accepts.Load(), int64(2*(epoch+1)); got != want || dialsAtReroute[epoch] != want {
			t.Fatalf("epoch %d: broken node dialled %d times (%d by the failover round), want %d",
				epoch, got, dialsAtReroute[epoch], want)
		}
		if c.Alive()[victimID] {
			t.Fatalf("epoch %d: the broken node is up at the epoch's end", epoch)
		}
	}
}
