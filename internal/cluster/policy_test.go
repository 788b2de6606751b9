package cluster

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"lotus/internal/control"
	"lotus/internal/serve"
	"lotus/internal/testutil"
)

// The hedge and balance policies judge a round record and a latency record;
// these tests drive both with injected times and observations. No socket is
// opened: New dials nothing, and the nodes' addresses are never used.

func policyClient(t *testing.T) *Client {
	t.Helper()
	c, err := New(Config{
		Nodes:           []Node{{ID: "a", Addr: "a:1"}, {ID: "b", Addr: "b:1"}, {ID: "c", Addr: "c:1"}},
		Name:            "policy",
		HedgeQuantile:   0.95,
		HedgeMinSamples: 2,
		HedgeMinDelay:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// record adds n gaps of d to node's warm-up (first) or steady population.
func record(c *Client, node string, first bool, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		c.lat.record(node, first, d)
	}
}

// policyRound assigns a 20-batch plan across the three nodes as round 0
// would, every node last heard from at t0 and already past its warm-up.
func policyRound(t *testing.T, c *Client, t0 time.Time) *round {
	t.Helper()
	ids := make([]int, 20)
	for i := range ids {
		ids[i] = i
	}
	asn := c.ring.Assign(ids, c.Alive(), 1)
	rd := newRound(asn.ByNode, t0)
	for _, n := range []string{"a", "b", "c"} {
		if rd.nodes[n] == nil || len(rd.nodes[n].ids) == 0 {
			t.Fatalf("ring assigned node %s nothing of a 20-batch plan", n)
		}
		rd.nodes[n].seen = true
	}
	return rd
}

func laggards(lags []laggard) []string {
	var out []string
	for _, l := range lags {
		out = append(out, l.node)
	}
	return out
}

func newLedger() *epochState {
	stats := &EpochStats{Counters: Counters{PerNode: make(map[string]int)}}
	return &epochState{received: make(map[int]bool), hedged: make(map[int]bool), stats: stats}
}

// flaggedNodes is the set of nodes rd has flagged as stalled.
func flaggedNodes(rd *round) map[string]bool {
	out := make(map[string]bool)
	for node, nf := range rd.nodes {
		if nf.flagged {
			out[node] = true
		}
	}
	return out
}

// TestHedgeRelativeProgressGuard: a quiet node is a straggler only while a
// peer is current. When every node is quiet past its threshold the slowness
// is correlated and nothing is flagged; once one peer is current the quiet
// ones are, and a flagged node is not flagged twice.
func TestHedgeRelativeProgressGuard(t *testing.T) {
	c := policyClient(t)
	for _, n := range []string{"a", "b", "c"} {
		record(c, n, false, 4, 10*time.Millisecond)
	}
	t0 := time.Now()
	rd := policyRound(t, c, t0)
	now := t0.Add(time.Second)
	if lags := rd.stalled(now, c.hedgeThreshold); len(lags) != 0 {
		t.Fatalf("every node quiet: flagged %v, want none", laggards(lags))
	}
	if f := flaggedNodes(rd); len(f) != 0 {
		t.Fatalf("correlated quiet left flags %v", f)
	}
	rd.nodes["b"].last = now.Add(-time.Millisecond)
	lags := rd.stalled(now, c.hedgeThreshold)
	if got := flaggedNodes(rd); len(lags) != 2 || !got["a"] || !got["c"] || got["b"] {
		t.Fatalf("b current: flagged %v (returned %v), want a and c", got, laggards(lags))
	}
	for _, l := range lags {
		if l.threshold != 10*time.Millisecond {
			t.Fatalf("%s judged against %v, want the peers' 10ms cadence", l.node, l.threshold)
		}
	}
	if again := rd.stalled(now, c.hedgeThreshold); len(again) != 0 {
		t.Fatalf("already-flagged nodes flagged again: %v", laggards(again))
	}
	// A finished node counts as current too.
	rd2 := policyRound(t, c, t0)
	rd2.nodes["c"].done = true
	if lags := rd2.stalled(now, c.hedgeThreshold); len(lags) != 2 {
		t.Fatalf("c finished: flagged %v, want a and b", laggards(lags))
	}
}

// TestHedgeFlagRetraction: a flag that finds no successor is retracted, so
// the node is judged again on the next pass. Here a stalls while b and c have
// finished and are dead: a's successor walk finds nobody, so a is not hedged
// and its flag goes. Once c is back, the next pass judges a again and hedges
// it to c. Without retraction a would stay flagged and never be judged again
// — when several warming-up nodes are flagged at once and exclude each other
// as targets, that is a round that waits out every stall.
func TestHedgeFlagRetraction(t *testing.T) {
	c := policyClient(t)
	for _, n := range []string{"a", "b", "c"} {
		record(c, n, false, 4, 10*time.Millisecond)
	}
	t0 := time.Now()
	rd := policyRound(t, c, t0)
	for _, n := range []string{"b", "c"} {
		rd.nodes[n].done = true
		c.setDown(n, true)
	}
	st := newLedger()
	now := t0.Add(time.Second)

	if orders := c.hedgePlan(rd, st, now); len(orders) != 0 {
		t.Fatalf("no successor alive, yet hedged: %+v", orders)
	}
	if f := flaggedNodes(rd); len(f) != 0 {
		t.Fatalf("flags %v not retracted after finding no successor", f)
	}
	if st.stats.Hedged != 0 || len(st.hedged) != 0 {
		t.Fatalf("ledger marked hedges that never started: %d", st.stats.Hedged)
	}

	c.setDown("c", false)
	orders := c.hedgePlan(rd, st, now.Add(time.Millisecond))
	if len(orders) != 1 || orders[0].slow != "a" {
		t.Fatalf("second pass: %+v, want one order for a", orders)
	}
	want := rd.nodes["a"].ids
	if got := orders[0].targets["c"]; !reflect.DeepEqual(got, want) || len(orders[0].targets) != 1 {
		t.Fatalf("a's batches hedged as %v, want all of %v to c", orders[0].targets, want)
	}
	if st.stats.Hedged != len(want) {
		t.Fatalf("ledger counted %d hedged, want %d", st.stats.Hedged, len(want))
	}
}

// TestHedgeWarmupVsSteady: a node with no frame yet this round is judged
// against its peers' warm-up gaps, a mid-stream node against their steady
// cadence — so the same quiet spell is normal at round start and a stall
// mid-stream.
func TestHedgeWarmupVsSteady(t *testing.T) {
	c := policyClient(t)
	for _, n := range []string{"b", "c"} {
		record(c, n, true, 2, 200*time.Millisecond)
		record(c, n, false, 4, 1100*time.Microsecond)
	}
	if th, ok := c.hedgeThreshold("a", false); !ok || th != 200*time.Millisecond {
		t.Fatalf("warm-up threshold %v (armed %v), want the peers' 200ms first-frame gap", th, ok)
	}
	if th, ok := c.hedgeThreshold("a", true); !ok || th != 1100*time.Microsecond {
		t.Fatalf("steady threshold %v (armed %v), want the peers' 1.1ms cadence", th, ok)
	}
	t0 := time.Now()
	rd := policyRound(t, c, t0)
	rd.nodes["a"].seen = false
	rd.nodes["b"].done = true
	now := t0.Add(50 * time.Millisecond)
	if lags := rd.stalled(now, c.hedgeThreshold); len(lags) != 1 || lags[0].node != "c" {
		t.Fatalf("flagged %v, want only c (mid-stream); a is still warming up", laggards(lags))
	}
	rd.nodes["a"].seen = true
	if lags := rd.stalled(now, c.hedgeThreshold); len(lags) != 1 || lags[0].node != "a" {
		t.Fatalf("a mid-stream and 50ms quiet: flagged %v, want a", laggards(lags))
	}
}

// TestHedgeThresholdFromPeersOnly: a node's own cadence never enters its
// threshold — a consistently slow node cannot drag the quantile up to its
// own pace — and a population too small to trust does not arm hedging.
func TestHedgeThresholdFromPeersOnly(t *testing.T) {
	c := policyClient(t)
	record(c, "b", false, 1, 10*time.Millisecond)
	if _, ok := c.hedgeThreshold("a", true); ok {
		t.Fatal("hedging armed on one peer observation (HedgeMinSamples 2)")
	}
	record(c, "a", false, 50, 5*time.Second)
	record(c, "b", false, 3, 10*time.Millisecond)
	record(c, "c", false, 4, 10*time.Millisecond)
	if th, ok := c.hedgeThreshold("a", true); !ok || th != 10*time.Millisecond {
		t.Fatalf("slow node a judged against %v (armed %v), want its peers' 10ms", th, ok)
	}
	if th, _ := c.hedgeThreshold("b", true); th < time.Second {
		t.Fatalf("b's threshold %v ignores peer a's 5s cadence", th)
	}
	t0 := time.Now()
	rd := policyRound(t, c, t0)
	now := t0.Add(time.Second)
	rd.nodes["b"].last, rd.nodes["c"].last = now, now
	if lags := rd.stalled(now, c.hedgeThreshold); len(lags) != 1 || lags[0].node != "a" {
		t.Fatalf("a quiet 1s against peers' 10ms: flagged %v, want a", laggards(lags))
	}
}

// TestBalanceWindowIsEpochDelta: the balancer sees each node's steady
// cadence since the previous epoch boundary, not the lifetime aggregate, and
// never the warm-up population.
func TestBalanceWindowIsEpochDelta(t *testing.T) {
	l := newLatency()
	snap := make(map[string]histSnap)
	l.record("a", false, 10*time.Millisecond)
	l.record("a", false, 10*time.Millisecond)
	l.record("a", false, 10*time.Millisecond)
	l.record("a", true, time.Second)
	want := []control.NodeSample{{Node: "a", Batches: 3, PerBatch: 10 * time.Millisecond}}
	if got := l.window(snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("first window %+v, want %+v", got, want)
	}
	l.record("a", false, 40*time.Millisecond)
	l.record("a", false, 40*time.Millisecond)
	l.record("b", false, 20*time.Millisecond)
	want = []control.NodeSample{
		{Node: "a", Batches: 2, PerBatch: 40 * time.Millisecond},
		{Node: "b", Batches: 1, PerBatch: 20 * time.Millisecond},
	}
	if got := l.window(snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("second window %+v, want the epoch's delta %+v", got, want)
	}
	if got := l.window(snap); len(got) != 0 {
		t.Fatalf("window with no new observation: %+v", got)
	}
}

// TestRunStatsSumEpochStats: a Run's Stats are the field-wise sum of its
// epochs' EpochStats, Spilled and Rounds included. One of three nodes is dead
// from the start without the router knowing, so epoch 0 takes a failover
// round and epoch 1 routes around it; an identically configured client that
// runs the two epochs one RunEpoch at a time supplies the EpochStats.
func TestRunStatsSumEpochStats(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, serve.FramesInUse))
	spec := clusterSpec()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	srvs := []*serve.Server{startNode(t, spec, nil), startNode(t, spec, nil)}
	// node2 sorts last, so the plan handshake reaches a live node first.
	nodes := append(testNodes(srvs), Node{ID: "node2", Addr: deadAddr})

	for _, replication := range []int{2, 1} {
		t.Run(fmt.Sprintf("replication=%d", replication), func(t *testing.T) {
			newClient := func() *Client {
				c, err := New(Config{Nodes: nodes, Replication: replication, Name: "stats-sum",
					Sleep: func(time.Duration) {}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			run, err := newClient().Run(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			stepper := newClient()
			sum := Counters{PerNode: make(map[string]int)}
			for e := 0; e < 2; e++ {
				es, err := stepper.RunEpoch(e, nil)
				if err != nil {
					t.Fatal(err)
				}
				sum.add(&es.Counters)
			}
			if !reflect.DeepEqual(run.Counters, sum) {
				t.Fatalf("Run's stats %+v, sum of its epochs %+v", run.Counters, sum)
			}
			if run.Epochs != 2 || run.Rounds != 3 || run.NodeFailures != 1 || run.Rerouted == 0 {
				t.Fatalf("want 2 epochs in 3 rounds with one failover: %+v", run)
			}
			// With replication 2 a dead node's batches fall to their second
			// replica; with 1 every one of them spills.
			if (run.Spilled == 0) != (replication == 2) {
				t.Fatalf("replication %d: spilled %d", replication, run.Spilled)
			}
		})
	}
}

// TestConcurrentRetriesShareJitter: two nodes that fail in the same round
// retry at once, and both draw their backoff from the client's one jitter
// stream. The injected sleep holds each retry until both have drawn, so
// under -race the draws are concurrent unless the client serializes them.
func TestConcurrentRetriesShareJitter(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := clusterSpec()
	nodes := testNodes([]*serve.Server{startNode(t, spec, nil)})
	for _, id := range []string{"node1", "node2"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, Node{ID: id, Addr: ln.Addr().String()})
		ln.Close()
	}
	var mu sync.Mutex
	var sleeps []time.Duration
	both := make(chan struct{})
	c, err := New(Config{Nodes: nodes, Name: "jitter", Sleep: func(d time.Duration) {
		mu.Lock()
		if sleeps = append(sleeps, d); len(sleeps) == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
		case <-time.After(5 * time.Second):
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.RunEpoch(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeFailures != 2 || stats.Batches != 20 {
		t.Fatalf("want both dead nodes failed over and 20 batches delivered: %+v", stats)
	}
	if len(sleeps) != 2 {
		t.Fatalf("%d backoff sleeps, want one per dead node", len(sleeps))
	}
	for _, d := range sleeps {
		if d < retryBackoffBase/2 || d >= retryBackoffBase {
			t.Fatalf("first-retry backoff %v outside [%v, %v)", d, retryBackoffBase/2, retryBackoffBase)
		}
	}
}
