package chaos

import (
	"net"
	"os"
	"time"

	"lotus/internal/cluster"
	"lotus/internal/faultinject"
	"lotus/internal/serve"
	"lotus/internal/store"
	"lotus/internal/workloads"
)

// servedRows is the served half of the sweep's table, in sweep order. New
// rows go at the end, so a seed's earlier output stays comparable. Every row
// serves real pixels, so its faults land on the frames production writes;
// only an emulate row runs the cost model.
func servedRows() []row {
	return []row{
		// Wire faults: the session's retries mask them.
		{class: "wire-drop", faults: faultinject.Spec{DropFrame: 3}, epochs: 2},
		{class: "wire-truncate", faults: faultinject.Spec{TruncateFrame: 5}, epochs: 2},
		{class: "wire-corrupt", faults: faultinject.Spec{CorruptFrame: 4}, epochs: 2},
		// Worker panics end the epoch in a clean Error frame.
		{class: "server-panic", faults: faultinject.Spec{PanicNth: 6}, wantErr: true, check: fired},
		// A client that vanishes mid-epoch leaves the server serving the next.
		{class: "client-disconnect", before: rudeClient},

		// The retried fetch is served from the cache: wire faults land on the
		// connection, never in the shared cache bytes or the cached prefixes.
		{class: "wire-drop-cached", faults: faultinject.Spec{DropFrame: 3}, epochs: 2,
			batchCache: chaosCacheBytes, check: batchCacheHit},
		{class: "wire-corrupt-cached", faults: faultinject.Spec{CorruptFrame: 4}, epochs: 2,
			batchCache: chaosCacheBytes, check: batchCacheHit},
		{class: "wire-corrupt-scache", workload: workloads.ICA, faults: faultinject.Spec{CorruptFrame: 4},
			epochs: 2, sampleCache: chaosCacheBytes, check: sampleCacheHit},
		// 1 KiB holds no 48×48 prefix: every entry is evicted on insert.
		{class: "scache-churn", workload: workloads.ICA, sampleCache: 1 << 10, epochs: 2, check: churned},
		// A rate-capped tenant floods from three sessions beside a polite one.
		{class: "tenant-greedy", batchCache: chaosCacheBytes, epochs: 2,
			tenants: map[string]serve.TenantLimit{"greedy": {BatchesPerSec: 100, BurstBatches: 4}},
			client:  sessions(map[string]int{"greedy": 3, "polite": 1}), check: throttled},

		// Crashes of the disk tier: the restart indexes its segments and
		// serves warm bytes; a torn or rotten record degrades to a clean
		// recompute.
		{class: "disk-rewarm", batchCache: chaosCacheBytes, disk: true, lives: 2,
			between: tearTails, check: rewarmed},
		{class: "disk-header-rot", batchCache: chaosCacheBytes, disk: true, lives: 2,
			between: rotHeaderKey, check: rewarmed},
		{class: "disk-corrupt-segment", batchCache: chaosCacheBytes, disk: true, lives: 2,
			faults: faultinject.Spec{CorruptDiskAppend: 3}, check: rewarmed},

		// Hedging around a node stalling 2 s on every batch: the stall blocks
		// its stream.
		{class: "cluster-hedge-slow-node", nodes: 3,
			faults: faultinject.Spec{StallNth: 1, WorkerStall: 2 * time.Second},
			client: routed(func(*env) cluster.Config {
				// The router's 250 ms hedge floor keeps a healthy peer's
				// scheduling hiccup from drawing noise hedges, far below the
				// stall.
				return cluster.Config{HedgeQuantile: 0.95}
			}),
			check: hedged},
		// Failover: the busiest node dies after its first frame.
		{class: "cluster-node-kill", nodes: 3, faults: faultinject.Spec{DropFrame: 2}, kill: true, client: routed(nil)},
		{class: "cluster-node-kill-cached", nodes: 3, faults: faultinject.Spec{DropFrame: 2}, kill: true,
			batchCache: chaosCacheBytes, client: routed(nil), check: survivorsCached},
		{class: "cluster-node-kill-scache", workload: workloads.ICA, nodes: 3, faults: faultinject.Spec{DropFrame: 2},
			kill: true, sampleCache: chaosCacheBytes, client: routed(nil), before: warmSurvivors, check: survivorsWarm},
		// A slow-but-correct node keeps its shard.
		{class: "cluster-node-slow", nodes: 3, faults: faultinject.Spec{StallNth: 1, WorkerStall: 500 * time.Millisecond},
			client: routed(nil), check: victimServed},
		nodeRejoin(),
		// The whole cluster killed and restarted on its directories: every
		// node serves its shard from disk.
		{class: "cluster-node-kill-rewarm", nodes: 3, batchCache: chaosCacheBytes, disk: true, lives: 2,
			between: tearTails, client: routed(nil), check: rewarmed},
		// The balancer sheds ring weight off a node stalling 60 ms per batch.
		// Emulate mode paces each node on its own modeled rate: three RealData
		// servers on one host are CPU-coupled. On RealData the row converges
		// in a plain run but never re-weights under -race (weight 1.00,
		// shares [12 12 12 12], 0 moves), so it stays on the cost model.
		{class: "cluster-autotune-slow-node", nodes: 3, samples: 256, emulate: true, epochs: 4,
			faults: faultinject.Spec{StallNth: 1, WorkerStall: 60 * time.Millisecond},
			client: routed(func(*env) cluster.Config { return cluster.Config{AutoTune: true} }),
			check:  converged},

		// A hung disk: the spill backlog fills behind the stalled writer, and
		// the epoch completes without waiting for it. 30 frames of 1.2 MB
		// pixels overrun the store's 32 MiB backlog.
		{class: "disk-stall", samples: 240, batchCache: chaosCacheBytes, disk: true,
			faults: faultinject.Spec{DiskStall: 1}, check: stalled},
		// A failed sample read reaches neither the sample cache nor the disk
		// tier: the second life serves the first's spills byte-identically.
		{class: "read-error-tiers", workload: workloads.ICA, sampleCache: chaosCacheBytes, disk: true, lives: 2,
			faults: faultinject.Spec{ReadErrorNth: 6}, wantErr: true, check: tiersClean},
		// A frame corrupted on its way to a router fails its digest before
		// delivery, so its ID stays unserved and the node's retry fetches it.
		{class: "cluster-wire-corrupt", nodes: 3, faults: faultinject.Spec{CorruptFrame: 2}, client: routed(nil)},
	}
}

// fired counts a fault class once: how many more faults fire before a failed
// or hedged stream is torn down is schedule, not seed.
func fired(e *env) { e.res.Injected = min(e.res.Injected, 1) }

// rudeClient handshakes, requests the whole of epoch 0, reads two frames and
// vanishes.
func rudeClient(e *env, _ int) {
	conn, err := net.Dial("tcp", e.srvs[0].Addr())
	if err != nil {
		e.fail("rude client: %v", err)
		return
	}
	defer conn.Close()
	e.res.Injected++ // the disconnect is the fault
	serve.WriteFrame(conn, serve.EncodeHello(serve.Hello{Version: serve.ProtocolVersion, World: 1, Name: "chaos-rude"}))
	payload, err := serve.ReadFrame(conn, 0)
	if err != nil {
		e.fail("rude client handshake: %v", err)
		return
	}
	msg, err := serve.DecodeMessage(payload)
	ack, ok := msg.(serve.HelloAck)
	if !ok {
		e.fail("rude client handshake: %T (%v), want HelloAck", msg, err)
		return
	}
	ids := make([]int, ack.PlanBatches)
	for i := range ids {
		ids[i] = i
	}
	serve.WriteFrame(conn, serve.EncodeShardReq(serve.ShardReq{Epoch: 0, IDs: ids}))
	for i := range 2 {
		if _, err := serve.ReadFrame(conn, 0); err != nil {
			e.fail("rude client frame %d: %v", i, err)
			return
		}
	}
}

func batchCacheHit(e *env) {
	st, _ := e.srvs[0].CacheStats()
	if st.Hits == 0 {
		e.fail("the retried fetch never hit the batch cache")
	}
	e.note("cache hits=%d misses=%d", st.Hits, st.Misses)
}

func sampleCacheHit(e *env) {
	st, _ := e.srvs[0].SampleCacheStats()
	if st.Hits == 0 {
		e.fail("no request ever hit the sample cache")
	}
	e.note("sample-cache hits=%d misses=%d", st.Hits, st.Misses)
}

func churned(e *env) {
	st, _ := e.srvs[0].SampleCacheStats()
	want(e, "sample-cache hits under a sub-entry budget", st.Hits, 0)
	want(e, "evictions (one per miss)", st.Evicted, st.Misses)
	if st.Misses < int64(e.spec.NumSamples) {
		e.fail("sample-cache misses %d, want at least one per sample (%d)", st.Misses, e.spec.NumSamples)
	}
	e.res.Injected = st.Evicted // the eviction pressure is the fault
}

// throttled: the cap held across all the greedy tenant's sessions, and the
// polite tenant ran uncapped — QoS is schedule, never content.
func throttled(e *env) {
	tenants := e.srvs[0].Snapshot(time.Now()).Tenants
	if len(tenants) != 2 || tenants[0].Tenant != "greedy" || tenants[1].Tenant != "polite" {
		e.fail("tenant rows on /metrics %+v, want greedy then polite", tenants)
		return
	}
	greedy, polite := tenants[0], tenants[1]
	if greedy.Batches == 0 || polite.Batches == 0 {
		e.fail("tenant rows on /metrics %+v, want both tenants served", tenants)
	}
	if greedy.ThrottledMs <= 0 {
		e.fail("greedy tenant never throttled: the cap did not hold across its sessions")
	}
	want(e, "polite tenant throttled ms", polite.ThrottledMs, 0)
	e.res.Injected = 3 // the greedy sessions
	e.note("greedy throttled=%.0fms polite=%.0fms", greedy.ThrottledMs, polite.ThrottledMs)
}

// tearTails cuts every node's newest segment in the middle of its last
// record after its server closed: the state a SIGKILL mid-append leaves.
func tearTails(e *env) {
	for _, dir := range e.dirs {
		path, off, err := store.LastRecord(dir)
		if err == nil {
			var st os.FileInfo
			if st, err = os.Stat(path); err == nil {
				err = os.Truncate(path, (off+st.Size())/2)
			}
		}
		if err != nil {
			e.fail("tear %s: %v", dir, err)
		}
		e.res.Injected++
	}
}

// rotHeaderKey flips the low bit of the batch ID in the header of node0's
// last record — bit rot that, unchecked, would serve that batch's bytes as
// its neighbour's. The key's B field (the global batch ID) is header bytes
// 21–28 (DESIGN §13).
func rotHeaderKey(e *env) {
	path, off, err := store.LastRecord(e.dirs[0])
	var seg []byte
	if err == nil {
		seg, err = os.ReadFile(path)
	}
	if err == nil {
		seg[off+28] ^= 1
		err = os.WriteFile(path, seg, 0o644)
	}
	if err != nil {
		e.fail("rot a header in %s: %v", e.dirs[0], err)
	}
	e.res.Injected++
}

func diskStats(e *env, i int) store.Stats {
	st, ok := e.srvs[i].DiskCacheStats()
	if !ok {
		e.fail("node%d reports the disk cache disabled", i)
	}
	return st
}

// rewarmed: each restarted node lost exactly the one record its row damaged
// — torn, a rotten header or a rotten payload — dropped it once, at Open or
// at its first read, recomputed that batch, and served every other batch of
// its shard from disk.
func rewarmed(e *env) {
	var hits int64
	for i := range e.srvs {
		st := diskStats(e, i)
		want(e, nodeID(i)+" records dropped", st.CorruptDropped, 1)
		want(e, nodeID(i)+" disk misses", st.BatchMisses, 1)
		hits += st.BatchHits
	}
	want(e, "disk hits", hits, int64(len(e.oracle[0])-len(e.srvs)))
}

// hedged: batches were hedged off the stalled node, and the successors'
// /metrics recorded the speculative requests.
func hedged(e *env) {
	if e.stats[0].Hedged == 0 {
		e.fail("no batches hedged off a node stalling every batch")
	}
	var served int64
	for i, srv := range e.srvs {
		if h := srv.Metrics().Snapshot(time.Now(), 0).Hedge; i != e.victim && h != nil {
			served += h.Batches
		}
	}
	if served == 0 {
		e.fail("no successor's /metrics recorded a hedged ShardReq")
	}
	e.note("hedged=%d won=%d wasted=%d", e.stats[0].Hedged, e.stats[0].HedgeWon, e.stats[0].HedgeWasted)
	fired(e)
}

// survivorsCached: the survivors absorbed the rerouted work through their
// caches.
func survivorsCached(e *env) {
	for i, srv := range e.srvs {
		if st, _ := srv.CacheStats(); i != e.victim && st.Misses == 0 {
			e.fail("survivor %s's cache idle during failover", nodeID(i))
		}
	}
}

// warmSurvivors fetches the whole plan from every survivor directly, so each
// holds every sample's prefix before the routed epoch kills the victim.
func warmSurvivors(e *env, _ int) {
	for i, srv := range e.srvs {
		if i == e.victim {
			continue
		}
		c := serve.NewClient(serve.ClientConfig{Addr: srv.Addr(), Name: "chaos-warm"})
		if _, err := c.Run(1, nil); err != nil {
			e.fail("warming %s: %v", nodeID(i), err)
		}
		c.Close()
	}
}

// survivorsWarm: the survivors served their shards and the rerouted work
// entirely from their warm prefixes.
func survivorsWarm(e *env) {
	for i, srv := range e.srvs {
		if i == e.victim {
			continue
		}
		st, _ := srv.SampleCacheStats()
		if st.Hits == 0 {
			e.fail("survivor %s never hit its warm sample cache", nodeID(i))
		}
		want(e, nodeID(i)+" sample-cache misses (the warm pass's)", st.Misses, int64(e.spec.NumSamples))
	}
}

func victimServed(e *env) {
	if n := e.stats[0].PerNode[nodeID(e.victim)]; n == 0 {
		e.fail("the slow node served nothing: its shard went elsewhere")
	}
}

// nodeRejoin closes node0's server before epoch 0 and starts a fresh one on
// its address before epoch 1. A node the router has not dialled yet is
// presumed up, and its plan handshake dials nodes in member-ID order, so
// node0 is the node it finds down before round 0: epoch 0 routes it nothing.
// Epoch 1's start dials it again, and it serves its shard in one round.
func nodeRejoin() row {
	const dead = 0
	return row{class: "cluster-node-rejoin", nodes: 3, epochs: 2, client: routed(nil),
		before: func(e *env, epoch int) {
			if epoch == 0 {
				e.srvs[dead].Close()
				e.res.Injected++ // the node death is the fault
				return
			}
			if e.router.Alive()[nodeID(dead)] {
				e.fail("the closed node is still up after epoch 0")
			}
			srv := serve.New(e.nodeConfig(dead))
			if err := srv.Start(e.members[dead].Addr, ""); err != nil {
				e.fail("restart %s: %v", nodeID(dead), err)
				return
			}
			e.srvs[dead] = srv // torn down and leak-checked with the rest
		},
		check: func(e *env) {
			if e.stats[0].PerNode[nodeID(dead)] != 0 {
				e.fail("a closed node was routed work")
			}
			if n := e.stats[1].PerNode[nodeID(dead)]; n == 0 || e.stats[1].Rounds != 1 {
				e.fail("the restarted node served %d batches in %d rounds; want its shard in one", n, e.stats[1].Rounds)
			}
			e.note("rejoined_served=%d", e.stats[1].PerNode[nodeID(dead)])
		}}
}

// converged: the balancer re-weighted, the victim's ring weight fell below
// every healthy peer's while they kept theirs, and its share of the epoch
// shrank — with no failover and identity in every epoch. The class counts
// once: every batch the victim serves stalls, and how many it serves follows
// ring weights the balancer derives from wall-clock cadence, not the seed.
func converged(e *env) {
	fired(e)
	victim := nodeID(e.victim)
	weights := e.router.Weights()
	if e.router.WeightMoves() == 0 {
		e.fail("the balancer never re-weighted a 60ms-stalled node")
	}
	if weights[victim] > 0.75 {
		e.fail("victim weight %.2f never dropped", weights[victim])
	}
	for _, n := range e.members {
		// Healthy peers may trade a few percent on scheduling jitter.
		if w := weights[n.ID]; n.ID != victim && (w < 0.75 || weights[victim] >= w) {
			e.fail("healthy node %s weight %.2f, victim %.2f", n.ID, w, weights[victim])
		}
	}
	var shares []int
	for _, st := range e.stats {
		shares = append(shares, st.PerNode[victim])
	}
	if shares[len(shares)-1] >= shares[0] {
		e.fail("victim share never converged down: %v", shares)
	}
	e.note("victim=%s weight=%.2f shares=%v moves=%d", victim, weights[victim], shares, e.router.WeightMoves())
}

// stalled: the epoch completed with the writer still blocked before its first
// append, and the spills it could not queue were dropped, not waited for.
func stalled(e *env) {
	st := diskStats(e, 0)
	want(e, "records appended behind a stalled writer", st.Spills, 0)
	if st.SpillsDropped == 0 {
		e.fail("the spill backlog never filled: nothing dropped behind the stalled writer")
	}
	e.note("dropped=%d", st.SpillsDropped)
}

// tiersClean: the second life read the first's spilled prefixes back — the
// tier was in play for the identity the runner checked.
func tiersClean(e *env) {
	if st := diskStats(e, 0); st.SampleHits == 0 {
		e.fail("the second life read no sample prefix from disk")
	}
	fired(e)
}
