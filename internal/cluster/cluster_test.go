package cluster

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

func clusterSpec() workloads.Spec {
	spec := workloads.ICSpec(640, 7)
	spec.BatchSize = 32 // 20 batches per epoch
	spec.NumWorkers = 2
	return spec
}

// startNode boots one loopback serve node; every node of a test cluster runs
// the identical spec, which is the determinism contract the cluster relies
// on.
func startNode(t *testing.T, spec workloads.Spec, inj *faultinject.Injector) *serve.Server {
	t.Helper()
	srv := serve.New(serve.Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2, Faults: inj})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// groundTruth fetches every epoch whole from a dedicated single node — the
// byte-identity reference the cluster must reproduce. Returned frames are
// indexed [epoch][globalID].
func groundTruth(t *testing.T, spec workloads.Spec, epochs int) [][][]byte {
	t.Helper()
	srv := startNode(t, spec, nil)
	c := serve.NewClient(serve.ClientConfig{Addr: srv.Addr(), Name: "ground-truth"})
	defer c.Close()
	byEpoch := make([]map[int][]byte, epochs)
	for e := range byEpoch {
		byEpoch[e] = make(map[int][]byte)
	}
	if _, err := c.Run(epochs, func(b *serve.Batch, payload []byte) {
		byEpoch[b.Epoch][b.GlobalID] = append([]byte(nil), payload...)
	}); err != nil {
		t.Fatalf("ground truth run: %v", err)
	}
	out := make([][][]byte, epochs)
	for e, m := range byEpoch {
		out[e] = make([][]byte, len(m))
		for gid, p := range m {
			out[e][gid] = p
		}
	}
	return out
}

// testNodes returns the cluster Node list for a set of live servers, with
// stable IDs node0..nodeN-1.
func testNodes(srvs []*serve.Server) []Node {
	nodes := make([]Node, len(srvs))
	for i, s := range srvs {
		nodes[i] = Node{ID: fmt.Sprintf("node%d", i), Addr: s.Addr()}
	}
	return nodes
}

// frameSink collects delivered frames with full exactly-once bookkeeping.
type frameSink struct {
	mu     sync.Mutex
	frames map[int]map[int][]byte // epoch -> globalID -> payload
	dups   int
}

func newFrameSink() *frameSink {
	return &frameSink{frames: make(map[int]map[int][]byte)}
}

func (fs *frameSink) onBatch(node string, b *serve.Batch, payload []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ep := fs.frames[b.Epoch]
	if ep == nil {
		ep = make(map[int][]byte)
		fs.frames[b.Epoch] = ep
	}
	if _, dup := ep[b.GlobalID]; dup {
		fs.dups++
		return
	}
	ep[b.GlobalID] = append([]byte(nil), payload...)
}

// verifyEpoch asserts one epoch was delivered exactly once and
// byte-identical to the single-node reference.
func (fs *frameSink) verifyEpoch(t *testing.T, epoch int, want [][]byte) {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dups != 0 {
		t.Fatalf("epoch %d: %d duplicate deliveries — exactly-once violated", epoch, fs.dups)
	}
	got := fs.frames[epoch]
	if len(got) != len(want) {
		t.Fatalf("epoch %d: delivered %d of %d batches", epoch, len(got), len(want))
	}
	for gid, ref := range want {
		p, ok := got[gid]
		if !ok {
			t.Fatalf("epoch %d: batch %d never delivered", epoch, gid)
		}
		if !bytes.Equal(p, ref) {
			t.Fatalf("epoch %d batch %d: cluster frame differs from single-node ground truth", epoch, gid)
		}
	}
}

// TestClusterThreeNodeLoopback is the tentpole's happy path: three nodes,
// two epochs, every batch exactly once and byte-identical to a single-node
// run, with the shards landing exactly where the ring says they should.
func TestClusterThreeNodeLoopback(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, serve.FramesInUse))
	spec := clusterSpec()
	const epochs = 2
	want := groundTruth(t, spec, epochs)
	planLen := len(want[0])

	srvs := []*serve.Server{startNode(t, spec, nil), startNode(t, spec, nil), startNode(t, spec, nil)}
	nodes := testNodes(srvs)
	c, err := New(Config{Nodes: nodes, Name: "cluster-test", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sink := newFrameSink()
	stats, err := c.Run(epochs, sink.onBatch)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	for e := 0; e < epochs; e++ {
		sink.verifyEpoch(t, e, want[e])
	}
	if stats.Batches != epochs*planLen {
		t.Fatalf("stats counted %d batches, want %d", stats.Batches, epochs*planLen)
	}
	if stats.NodeFailures != 0 || stats.Rerouted != 0 || stats.Ignored != 0 {
		t.Fatalf("healthy cluster reported failures=%d rerouted=%d ignored=%d",
			stats.NodeFailures, stats.Rerouted, stats.Ignored)
	}

	// Placement must match the ring's deterministic assignment exactly:
	// batch keys are epoch-independent, so each node serves its shard twice.
	ring := NewRing(0)
	alive := map[string]bool{}
	for _, n := range nodes {
		ring.Add(n.ID)
		alive[n.ID] = true
	}
	ids := make([]int, planLen)
	for i := range ids {
		ids[i] = i
	}
	asn := ring.Assign(ids, alive, 1)
	for _, n := range nodes {
		if got, wantN := stats.PerNode[n.ID], epochs*len(asn.ByNode[n.ID]); got != wantN {
			t.Fatalf("node %s served %d batches, ring assigns %d", n.ID, got, wantN)
		}
	}
}

// killSwitch closes a victim server the moment the router first reports a
// fetch error against it — the deterministic "node process dies mid-epoch"
// actuator (the fault injector guarantees the stream breaks; the kill switch
// guarantees the node stays down for the retry).
type killSwitch struct {
	victim string
	srv    *serve.Server
	once   sync.Once
}

func (k *killSwitch) onFetchError(node string, epoch, attempt int, err error) {
	if node == k.victim {
		k.once.Do(func() { k.srv.Close() })
	}
}

// victimWithLargestShard picks the node the ring gives the most batches, so
// a mid-stream kill always leaves unserved work behind.
func victimWithLargestShard(nodes []Node, planLen int) (string, int) {
	ring := NewRing(0)
	alive := map[string]bool{}
	for _, n := range nodes {
		ring.Add(n.ID)
		alive[n.ID] = true
	}
	ids := make([]int, planLen)
	for i := range ids {
		ids[i] = i
	}
	asn := ring.Assign(ids, alive, 1)
	best, bestLen := "", -1
	for _, n := range nodes {
		if l := len(asn.ByNode[n.ID]); l > bestLen {
			best, bestLen = n.ID, l
		}
	}
	return best, bestLen
}

// TestClusterNodeDeathMidEpoch is the tentpole's acceptance scenario: one of
// three nodes dies mid-epoch (its connection drops after its first batch
// frame and the process stays down), and the epoch still delivers every
// batch exactly once, byte-identical to the single-node reference. The next
// epoch routes around the corpse without any failover work.
func TestClusterNodeDeathMidEpoch(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, serve.FramesInUse))
	spec := clusterSpec()
	want := groundTruth(t, spec, 2)
	planLen := len(want[0])

	// The victim is decided by the ring before any server exists; give that
	// slot an injector that kills its connection before its second frame.
	probe := []Node{{ID: "node0"}, {ID: "node1"}, {ID: "node2"}}
	victimID, victimShard := victimWithLargestShard(probe, planLen)
	if victimShard < 2 {
		t.Fatalf("victim shard only %d batches; kill-mid-stream needs >= 2", victimShard)
	}
	srvs := make([]*serve.Server, 3)
	var victimSrv *serve.Server
	for i := range srvs {
		var inj *faultinject.Injector
		if fmt.Sprintf("node%d", i) == victimID {
			inj = faultinject.New(faultinject.Spec{Seed: 7, DropFrame: 2})
		}
		srvs[i] = startNode(t, spec, inj)
		if fmt.Sprintf("node%d", i) == victimID {
			victimSrv = srvs[i]
		}
	}
	nodes := testNodes(srvs)
	kill := &killSwitch{victim: victimID, srv: victimSrv}
	c, err := New(Config{
		Nodes: nodes, Name: "cluster-kill", Logf: t.Logf,
		OnFetchError: kill.onFetchError,
		Sleep:        func(time.Duration) {}, // no wall-clock waits in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sink := newFrameSink()
	stats, err := c.RunEpoch(0, sink.onBatch)
	if err != nil {
		t.Fatalf("epoch with node death: %v", err)
	}
	sink.verifyEpoch(t, 0, want[0])
	if stats.NodeFailures != 1 {
		t.Fatalf("node failures %d, want 1", stats.NodeFailures)
	}
	if stats.Rerouted == 0 || stats.Rounds < 2 {
		t.Fatalf("no failover observed: rerouted=%d rounds=%d", stats.Rerouted, stats.Rounds)
	}
	// DropFrame=2 let exactly one victim frame through before the cut; that
	// partial progress must be kept, not re-fetched.
	if got := stats.PerNode[victimID]; got != 1 {
		t.Fatalf("victim delivered %d frames before dying, want exactly 1 kept", got)
	}
	if stats.Rerouted != victimShard-1 {
		t.Fatalf("rerouted %d batches, want the victim's %d unserved", stats.Rerouted, victimShard-1)
	}
	if c.Alive()[victimID] {
		t.Fatal("victim not marked dead after failover")
	}

	// Epoch 1 on the degraded cluster: clean single-round run, no victim.
	sink2 := newFrameSink()
	stats2, err := c.RunEpoch(1, sink2.onBatch)
	if err != nil {
		t.Fatalf("epoch after node death: %v", err)
	}
	sink2.verifyEpoch(t, 1, want[1])
	if stats2.NodeFailures != 0 || stats2.Rerouted != 0 || stats2.Rounds != 1 {
		t.Fatalf("degraded-but-stable epoch did failover work: %+v", stats2)
	}
	if stats2.PerNode[victimID] != 0 {
		t.Fatal("dead node served batches in the following epoch")
	}
}

// TestRebalanceProperty is the satellite property test: across a sweep of
// victim choices and kill points (membership changes mid-epoch), the union
// of per-node served batch sets equals the plan exactly once, byte-identical
// to ground truth, with no goroutine left behind. Run under -race in CI.
func TestRebalanceProperty(t *testing.T) {
	spec := clusterSpec()
	want := groundTruth(t, spec, 1)
	planLen := len(want[0])

	trials := 6
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			baseline := testutil.Baseline()
			victimID := fmt.Sprintf("node%d", trial%3)
			dropFrame := 1 + trial%4 // includes a kill before the very first frame
			srvs := make([]*serve.Server, 3)
			var victimSrv *serve.Server
			for i := range srvs {
				var inj *faultinject.Injector
				if fmt.Sprintf("node%d", i) == victimID {
					inj = faultinject.New(faultinject.Spec{Seed: int64(trial + 1), DropFrame: dropFrame})
				}
				srvs[i] = startNode(t, spec, inj)
				if fmt.Sprintf("node%d", i) == victimID {
					victimSrv = srvs[i]
				}
			}
			nodes := testNodes(srvs)
			kill := &killSwitch{victim: victimID, srv: victimSrv}
			c, err := New(Config{
				Nodes: nodes, Name: fmt.Sprintf("rebalance-%d", trial),
				OnFetchError: kill.onFetchError,
				Sleep:        func(time.Duration) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			sink := newFrameSink()
			stats, err := c.RunEpoch(0, sink.onBatch)
			if err != nil {
				t.Fatalf("trial %d (victim=%s drop=%d): %v", trial, victimID, dropFrame, err)
			}
			sink.verifyEpoch(t, 0, want[0])
			if stats.Ignored != 0 {
				t.Fatalf("trial %d: %d frames hit the exactly-once filter", trial, stats.Ignored)
			}
			// The union across PerNode must be the whole plan, once.
			total := 0
			for _, n := range stats.PerNode {
				total += n
			}
			if total != planLen {
				t.Fatalf("trial %d: per-node counts sum to %d, want %d", trial, total, planLen)
			}
			// The victim died mid-epoch whenever it had work at the kill
			// point; either way the run must have noticed iff it failed.
			if stats.PerNode[victimID] >= dropFrame {
				t.Fatalf("trial %d: victim delivered %d frames past its kill point %d",
					trial, stats.PerNode[victimID], dropFrame)
			}
			for _, s := range srvs {
				s.Close()
			}
			c.Close()
			if err := testutil.WaitNoLeaks(baseline, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterNoAliveNodes: a cluster of corpses fails fast with a clear
// error instead of hanging.
func TestClusterNoAliveNodes(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	c, err := New(Config{
		Nodes:       []Node{{ID: "a", Addr: addrs[0]}, {ID: "b", Addr: addrs[1]}},
		Name:        "corpses",
		DialTimeout: 200 * time.Millisecond,
		Sleep:       func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.RunEpoch(0, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("epoch against dead cluster succeeded")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dead cluster hung instead of failing")
	}
	if alive := c.Alive(); len(alive) != 0 {
		t.Fatalf("dead endpoints still marked alive: %v", alive)
	}
}

// TestClusterCachedNodesReuse: with the materialized-batch cache enabled on
// every node, two runs of the same epoch are both byte-identical to ground
// truth, the first run preprocesses each batch exactly once cluster-wide
// (total misses == plan length — ShardReq routing hits the same cache the
// full-plan path fills), and the second run is served from cache (misses do
// not grow; every serving node reports hits).
func TestClusterCachedNodesReuse(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, serve.FramesInUse))
	spec := clusterSpec()
	want := groundTruth(t, spec, 1)
	planLen := len(want[0])

	srvs := make([]*serve.Server, 3)
	for i := range srvs {
		srv := serve.New(serve.Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
			BatchCacheBytes: 64 << 20})
		if err := srv.Start("127.0.0.1:0", ""); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
	}
	c, err := New(Config{Nodes: testNodes(srvs), Name: "cluster-cached", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sumMisses := func() int64 {
		var n int64
		for _, srv := range srvs {
			st, ok := srv.CacheStats()
			if !ok {
				t.Fatal("cache-enabled node reports cache disabled")
			}
			n += st.Misses
		}
		return n
	}

	sink := newFrameSink()
	stats, err := c.RunEpoch(0, sink.onBatch)
	if err != nil {
		t.Fatalf("first cached epoch: %v", err)
	}
	sink.verifyEpoch(t, 0, want[0])
	if got := sumMisses(); got != int64(planLen) {
		t.Fatalf("first run: cluster-wide misses %d, want %d (each batch preprocessed once)", got, planLen)
	}

	sink2 := newFrameSink()
	stats2, err := c.RunEpoch(0, sink2.onBatch)
	if err != nil {
		t.Fatalf("second cached epoch: %v", err)
	}
	sink2.verifyEpoch(t, 0, want[0])
	if got := sumMisses(); got != int64(planLen) {
		t.Fatalf("second run recomputed: cluster-wide misses %d, want still %d", got, planLen)
	}
	for i, srv := range srvs {
		st, _ := srv.CacheStats()
		id := fmt.Sprintf("node%d", i)
		if stats2.PerNode[id] > 0 && st.Hits == 0 {
			t.Fatalf("node%d served %d batches on the repeat run with zero cache hits", i, stats2.PerNode[id])
		}
	}
	if stats.Batches != planLen || stats2.Batches != planLen {
		t.Fatalf("runs delivered %d and %d batches, want %d each", stats.Batches, stats2.Batches, planLen)
	}
}

// hedgeSpec is a small real-pixel workload: wall-clock stalls on one node
// must be real for hedging to have anything to mitigate, so these tests run
// RealData servers instead of the virtual-stall Simulated ones above.
func hedgeSpec() workloads.Spec {
	spec := workloads.ICSpec(128, 7)
	spec.BatchSize = 16 // 8 batches per epoch
	spec.NumWorkers = 2
	return spec
}

// startRealNode boots one loopback RealData node at a small materialize dim.
func startRealNode(t *testing.T, spec workloads.Spec, inj *faultinject.Injector) *serve.Server {
	t.Helper()
	srv := serve.New(serve.Config{
		Spec: spec, Mode: pipeline.RealData, MaterializeDim: 24, Prefetch: 2, Faults: inj,
	})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestClusterHedgedFetchSlowNode: one of three nodes is degraded (every batch
// it produces stalls 30s on the wall clock — far past any compute noise,
// even under -race, so it is unambiguously a straggler relative to its
// peers) but never dies. Without hedging the epoch would wait out the stall
// train; with hedging the router re-issues the laggard's unserved IDs to
// ring successors, takes the first byte-identical answer, severs the
// satisfied primary (which bounds this test's runtime: the victim never
// delivers a frame on its own), and accounts every duplicate: exactly-once
// holds, nothing is reported dead, and Ignored == HedgeWasted.
func TestClusterHedgedFetchSlowNode(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, serve.FramesInUse))
	spec := hedgeSpec()

	srv := startRealNode(t, spec, nil)
	gt := serve.NewClient(serve.ClientConfig{Addr: srv.Addr(), Name: "ground-truth"})
	want := make([][]byte, 0)
	wantByID := make(map[int][]byte)
	if _, err := gt.Run(1, func(b *serve.Batch, payload []byte) {
		wantByID[b.GlobalID] = append([]byte(nil), payload...)
	}); err != nil {
		t.Fatalf("ground truth: %v", err)
	}
	gt.Close()
	for i := 0; i < len(wantByID); i++ {
		want = append(want, wantByID[i])
	}
	planLen := len(want)

	// The victim is the node the ring hands the most batches, so its stall
	// train dominates the epoch tail unless hedging intervenes.
	nodeIDs := []Node{{ID: "node0"}, {ID: "node1"}, {ID: "node2"}}
	victim, victimShard := victimWithLargestShard(nodeIDs, planLen)
	if victimShard == 0 {
		t.Fatal("ring assigned the victim nothing; test is vacuous")
	}
	srvs := make([]*serve.Server, 3)
	for i := range srvs {
		var inj *faultinject.Injector
		if fmt.Sprintf("node%d", i) == victim {
			inj = faultinject.New(faultinject.Spec{
				Seed: 7, StallNth: 1, WorkerStall: 30 * time.Second,
			})
		}
		srvs[i] = startRealNode(t, spec, inj)
	}
	c, err := New(Config{
		Nodes:           testNodes(srvs),
		Name:            "hedge-test",
		HedgeQuantile:   0.95,
		HedgeMinSamples: 2,
		HedgeMinDelay:   5 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sink := newFrameSink()
	start := time.Now()
	stats, err := c.RunEpoch(0, sink.onBatch)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged epoch: %v", err)
	}
	sink.verifyEpoch(t, 0, want)
	if stats.Hedged == 0 {
		t.Fatal("no batches were hedged off a node stalling 30s per batch")
	}
	if stats.Ignored != stats.HedgeWasted {
		t.Fatalf("Ignored=%d HedgeWasted=%d: duplicates not fully attributed to hedging",
			stats.Ignored, stats.HedgeWasted)
	}
	if stats.NodeFailures != 0 {
		t.Fatalf("a merely-degraded node was declared dead %d times", stats.NodeFailures)
	}
	// Latency gating lives in BenchmarkStragglerTail and the chaos cell: under
	// -race, pixel synthesis dwarfs the injected stalls and any wall-clock
	// bound here flakes. This test owns the correctness contract only.
	t.Logf("hedged epoch: %v (victim shard %d) hedged=%d won=%d wasted=%d",
		elapsed, victimShard, stats.Hedged, stats.HedgeWon, stats.HedgeWasted)
}

// TestWeightShiftProperty is the weighted-ring mirror of
// TestRebalanceProperty: shifting a node's vnode weight mid-epoch — alone
// and combined with a mid-epoch node death — preserves exactly-once
// delivery and byte-identity with single-node ground truth, and the shifted
// weight governs the next epoch's partition. Run under -race in CI.
func TestWeightShiftProperty(t *testing.T) {
	spec := clusterSpec()
	want := groundTruth(t, spec, 2)
	weights := []float64{0, 1.0 / 16, 0.3, 0.66}

	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			baseline := testutil.Baseline()
			victimID := fmt.Sprintf("node%d", trial%3)
			w := weights[trial%len(weights)]
			killTrial := trial%2 == 1 // odd trials also kill another node mid-epoch
			var killID string
			srvs := make([]*serve.Server, 3)
			var killSrv *serve.Server
			for i := range srvs {
				id := fmt.Sprintf("node%d", i)
				var inj *faultinject.Injector
				if killTrial && id != victimID && killID == "" {
					killID = id
					inj = faultinject.New(faultinject.Spec{Seed: int64(trial + 1), DropFrame: 2})
				}
				srvs[i] = startNode(t, spec, inj)
				if id == killID {
					killSrv = srvs[i]
				}
			}
			nodes := testNodes(srvs)
			cfg := Config{
				Nodes: nodes, Name: fmt.Sprintf("reweight-%d", trial),
				Sleep: func(time.Duration) {},
			}
			if killTrial {
				kill := &killSwitch{victim: killID, srv: killSrv}
				cfg.OnFetchError = kill.onFetchError
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// The weight shift fires from the delivery callback — i.e. from a
			// fetch goroutine mid-epoch, the hardest point to re-weight at.
			// The queue/safe-point discipline applies it at the next round or
			// epoch boundary.
			sink := newFrameSink()
			var once sync.Once
			stats, err := c.RunEpoch(0, func(node string, b *serve.Batch, payload []byte) {
				once.Do(func() {
					if !c.SetNodeWeight(victimID, w) {
						t.Errorf("SetNodeWeight(%q) rejected a known node", victimID)
					}
				})
				sink.onBatch(node, b, payload)
			})
			if err != nil {
				t.Fatalf("trial %d (victim=%s w=%.2f kill=%v): %v", trial, victimID, w, killTrial, err)
			}
			sink.verifyEpoch(t, 0, want[0])
			if stats.Ignored != 0 {
				t.Fatalf("trial %d: %d frames hit the exactly-once filter", trial, stats.Ignored)
			}

			// Epoch 1 runs fully under the shifted weight.
			sink2 := newFrameSink()
			stats2, err := c.RunEpoch(1, sink2.onBatch)
			if err != nil {
				t.Fatalf("trial %d epoch 1: %v", trial, err)
			}
			sink2.verifyEpoch(t, 1, want[1])
			wantW := float64(quantizeWeight(w, DefaultVNodes)) / DefaultVNodes
			if got := c.Weights()[victimID]; got != wantW {
				t.Fatalf("trial %d: victim weight %.4f after shift, want %.4f", trial, got, wantW)
			}
			if w == 0 && stats2.PerNode[victimID] != 0 {
				t.Fatalf("trial %d: weight-0 node still served %d batches", trial, stats2.PerNode[victimID])
			}
			for _, s := range srvs {
				s.Close()
			}
			c.Close()
			if err := testutil.WaitNoLeaks(baseline, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterLongSessionNames: a node session's label is the router's Name
// and the node's ID, which together can pass the 64 bytes a Hello name may
// carry; the router cuts the label to fit, so the node still serves.
func TestClusterLongSessionNames(t *testing.T) {
	srv := startNode(t, clusterSpec(), nil)
	c, err := New(Config{Nodes: []Node{{ID: strings.Repeat("n", 40), Addr: srv.Addr()}},
		Name: strings.Repeat("r", serve.MaxHelloString), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Run(1, newFrameSink().onBatch)
	if err != nil || stats.NodeFailures != 0 || stats.Batches == 0 {
		t.Fatalf("run with a %d-byte label: %v (%d batches, %d node failures)",
			serve.MaxHelloString+41, err, stats.Batches, stats.NodeFailures)
	}
}
