package cluster

import (
	"sync"
	"time"

	"lotus/internal/serve"
)

// Hedging is a policy over one routing round (runRound): a pass every
// hedgeInterval judges each node's progress against its peers' latency,
// re-issues a stalled node's unserved IDs to other ring members, and severs
// the stalled primary once hedges delivered all it was assigned. Each rule
// below fixes a deadlock or a hedge storm; its comment says which.

// latency is the per-node batch-arrival record both policies read: hedging
// derives its stall thresholds from it, balancing windows it into service
// times. It accumulates across rounds and epochs — recent latency, not
// per-round latency, defines "abnormally slow". Two populations are kept
// apart because they differ by an order of magnitude: first holds each
// round's start-to-first-frame gap (dial, handshake, pipeline spin-up, first
// batch), steady the mid-stream inter-arrival cadence. Folding warm-up gaps
// into the steady histogram would either inflate the mid-stream threshold to
// warm-up scale or, kept apart but applied uniformly, flag every node as
// stalled during round start.
type latency struct {
	mu     sync.Mutex
	steady map[string]*serve.LatencyHist
	first  map[string]*serve.LatencyHist
}

func newLatency() latency {
	return latency{steady: make(map[string]*serve.LatencyHist), first: make(map[string]*serve.LatencyHist)}
}

// record adds one gap observed on node to the warm-up (first) or steady
// population.
func (l *latency) record(node string, first bool, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.steady
	if first {
		m = l.first
	}
	h := m[node]
	if h == nil {
		h = &serve.LatencyHist{}
		m[node] = h
	}
	h.Record(d)
}

// hedgeThreshold returns the no-progress bound for judging node, or false
// while its peers' histograms are too cold to trust. The quantile is taken
// over the merged latencies of every OTHER node: a straggler is a node slow
// relative to its peers. Folding the judged node's own cadence in would let
// a consistently degraded node drag the quantile up to its own pace and
// never look stalled. seen selects the population: a node still in warm-up
// (no frame this round) is compared against peers' warm-up gaps, a
// mid-stream node against peers' steady inter-arrival cadence — so hedging
// fires at tens of milliseconds mid-stream without storming at round start,
// when every node is legitimately quiet for a warm-up's worth of time.
func (c *Client) hedgeThreshold(node string, seen bool) (time.Duration, bool) {
	c.lat.mu.Lock()
	defer c.lat.mu.Unlock()
	m := c.lat.steady
	if !seen {
		m = c.lat.first
	}
	var peers serve.LatencyHist
	for id, h := range m {
		if id != node {
			peers.Merge(h)
		}
	}
	if peers.Total < hedgeMinSamples {
		return 0, false
	}
	return max(peers.Quantile(c.cfg.HedgeQuantile), c.hedgeMinDelay), true
}

// laggard is one stalled node and the threshold it was judged against.
type laggard struct {
	node      string
	threshold time.Duration
}

// stalled returns the nodes that are still running, have not been flagged
// yet, and have made no progress for longer than their threshold (false from
// threshold means the node cannot be judged yet), and flags them. The
// threshold callback receives whether the node has delivered a frame this
// round, so warm-up quiet and mid-stream quiet are judged against different
// populations.
//
// A node is only a straggler RELATIVE to peers that are making progress: if
// every node in the round is quiet past its threshold, the slowness is
// correlated — a loaded box, a consumer-side pause, round-start warm-up —
// and hedging would only add load to whatever is already saturated (worse,
// simultaneous flags used to exclude each other as hedge targets, so the
// one genuinely degraded node could end up with nowhere to hedge to). So a
// quiet node is flagged only while at least one other node is current:
// finished, or heard from within its own threshold.
func (rd *round) stalled(now time.Time, threshold func(node string, seen bool) (time.Duration, bool)) []laggard {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	current := 0
	var candidates []laggard
	for node, nf := range rd.nodes {
		if nf.done {
			current++
			continue
		}
		th, ok := threshold(node, nf.seen)
		if !ok {
			continue
		}
		if now.Sub(nf.last) <= th {
			current++
			continue
		}
		if nf.flagged || nf.aborted {
			continue
		}
		candidates = append(candidates, laggard{node: node, threshold: th})
	}
	if current == 0 {
		return nil
	}
	for _, lag := range candidates {
		rd.nodes[lag.node].flagged = true
	}
	return candidates
}

// unflag retracts a stall flag that produced no hedge (every candidate
// successor was itself flagged, dead, or the slow node). Without retraction,
// a pass that flags several warming-up nodes at once deadlocks: each node's
// target walk excludes the others and nobody gets hedged for the rest of the
// round. Retracted nodes are re-judged on the next pass, by which time false
// positives have delivered frames and dropped out of the set.
func (rd *round) unflag(node string) {
	rd.mu.Lock()
	rd.nodes[node].flagged = false
	rd.mu.Unlock()
}

// abortIfRunning marks node's primary as deliberately severed unless it
// already finished; the caller Kicks only on true, so a completed fetch's
// idle connection is (almost) never closed under it.
func (rd *round) abortIfRunning(node string) bool {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	nf := rd.nodes[node]
	if nf.done {
		return false
	}
	nf.aborted = true
	return true
}

// registerHedge records a hedge stream's client so the round can sever it at
// close. False means the round is already over: the hedge must not start.
func (rd *round) registerHedge(hc *serve.Client) bool {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if rd.closed {
		return false
	}
	rd.hedges = append(rd.hedges, hc)
	return true
}

// hedgeOrder is one pass's decision for one stalled node: which of its
// unserved IDs go to which successor.
type hedgeOrder struct {
	slow      string
	threshold time.Duration
	targets   map[string][]int
	ids       int
}

// hedgePlan is a hedge pass's judgement at now: it flags the round's
// stragglers, picks a successor for each of their unserved IDs, retracts the
// flags that found no successor, and marks the hedged IDs in the ledger.
// Starting the orders' fetches is hedgePass's job.
func (c *Client) hedgePlan(rd *round, st *epochState, now time.Time) []hedgeOrder {
	var orders []hedgeOrder
	for _, lag := range rd.stalled(now, c.hedgeThreshold) {
		unserved := st.unserved(rd.nodes[lag.node].ids)
		if len(unserved) == 0 {
			continue
		}
		targets := c.hedgeTargets(rd, lag.node, unserved)
		hedging := make([]int, 0, len(unserved))
		for _, ids := range targets {
			hedging = append(hedging, ids...)
		}
		if len(hedging) == 0 {
			rd.unflag(lag.node)
			continue
		}
		st.mu.Lock()
		for _, id := range hedging {
			if !st.hedged[id] {
				st.hedged[id] = true
				st.stats.Hedged++
			}
		}
		st.mu.Unlock()
		orders = append(orders, hedgeOrder{slow: lag.node, threshold: lag.threshold, targets: targets, ids: len(hedging)})
	}
	return orders
}

// hedgeTargets groups a slow node's unserved IDs by successor: for each
// batch, its Pick among the alive nodes that are not the slow node and are
// not themselves flagged as stalled this round — insurance bought from a
// node already known to be struggling is worthless. Batches with no such
// successor are left to the normal reroute path.
func (c *Client) hedgeTargets(rd *round, slow string, ids []int) map[string][]int {
	alive := c.Alive()
	rd.mu.Lock()
	defer rd.mu.Unlock()
	accept := func(n string) bool {
		nf := rd.nodes[n]
		return n != slow && alive[n] && (nf == nil || !nf.flagged)
	}
	out := make(map[string][]int)
	for _, id := range ids {
		if n, ok := c.ring.Pick(BatchKey(id), accept); ok {
			out[n] = append(out[n], id)
		}
	}
	return out
}

// hedgePass runs one hedge pass on the round's goroutine and starts a fetch
// per (stalled node, successor) order; hedges tracks them so the round joins
// them before it ends.
func (c *Client) hedgePass(epoch int, rd *round, st *epochState, hedges *sync.WaitGroup, onBatch func(string, *serve.Batch, []byte)) {
	for _, o := range c.hedgePlan(rd, st, time.Now()) {
		c.cfg.Logf("cluster: epoch %d: node %s stalled past %v; hedging %d batches to %d successors",
			epoch, o.slow, o.threshold, o.ids, len(o.targets))
		for succ, ids := range o.targets {
			hedges.Add(1)
			go func() {
				defer hedges.Done()
				c.hedgeFetch(epoch, o.slow, succ, ids, rd, st, onBatch)
			}()
		}
	}
}

// hedgeFetch streams a slow node's unserved IDs from one successor on a
// fresh connection (the successor's primary client is busy with its own
// shard). On success, if nothing assigned to the slow node remains unserved,
// the slow primary is severed so the round stops waiting for it. Hedge
// failures are advisory — the primary and the normal reroute path still
// stand — so they never mark the successor down.
func (c *Client) hedgeFetch(epoch int, slow, succ string, ids []int, rd *round, st *epochState, onBatch func(string, *serve.Batch, []byte)) {
	hc := serve.NewClient(serve.ClientConfig{
		Addr:        c.addrOf[succ],
		Name:        sessionName(c.cfg.Name + "@" + succ + "/hedge"),
		Tenant:      c.cfg.Tenant,
		DialTimeout: c.cfg.DialTimeout,
	})
	defer hc.Close()
	if !rd.registerHedge(hc) {
		return
	}
	err := hc.FetchShardHedged(epoch, ids, func(b *serve.Batch, payload []byte) {
		c.deliver(st, succ, b, payload, true, onBatch)
	})
	if err != nil {
		// A round-teardown kick is the expected end of a hedge that lost the
		// race; only a hedge that died on its own is worth a log line.
		if !rd.isClosed() {
			c.cfg.Logf("cluster: epoch %d: hedge to %s for %s failed: %v", epoch, succ, slow, err)
		}
		return
	}
	if len(st.unserved(rd.nodes[slow].ids)) == 0 && rd.abortIfRunning(slow) {
		c.cfg.Logf("cluster: epoch %d: hedges covered node %s; severing its in-flight fetch", epoch, slow)
		c.clients[slow].Kick()
	}
}
