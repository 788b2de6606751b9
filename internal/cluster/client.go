package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lotus/internal/control"
	"lotus/internal/rng"
	"lotus/internal/serve"
)

// Node identifies one lotus-serve member of the cluster.
type Node struct {
	// ID is the node's stable identity on the hash ring. Defaults to Addr.
	ID string
	// Addr is the wire-protocol endpoint (host:port).
	Addr string
}

// Config parameterizes a cluster client.
type Config struct {
	// Nodes is the cluster's member list. Every node must serve the same
	// workload spec: the epoch plan is derived from (spec, seed, epoch), so
	// any node can produce any batch, byte-identically.
	Nodes []Node
	// Name labels this consumer's sessions in node metrics, as
	// Name@nodeID cut to serve.MaxHelloString bytes, and seeds the retry
	// jitter.
	Name string
	// Tenant is the QoS accounting bucket every node session (primary and
	// hedge) bills to; empty means each node's default tenant. Pure
	// passthrough — quotas live server-side, so a router cannot exempt
	// itself by misconfiguration.
	Tenant string
	// DialTimeout is passed to each node's serve.Client: it bounds a dial
	// and its handshake, so it is also how long a black-holed node costs the
	// epoch start that dials it.
	DialTimeout time.Duration
	// HedgeQuantile, when > 0, enables hedged fetches (hedge.go) — the
	// consumer-side straggler mitigation: a node whose in-flight shard has
	// made no progress for longer than this quantile of its peers' recent
	// batch inter-arrival latency gets its still-unserved IDs speculatively
	// re-issued to each batch's next-best ring member. The exactly-once
	// ledger deduplicates, so the first byte-identical answer wins; the
	// loser's frames land in Ignored/HedgeWasted. A primary whose remaining
	// work a hedge fully delivered is severed (Kick) so the round does not
	// wait out its stall. 0.95 is the conventional choice. 0 disables
	// hedging.
	HedgeQuantile float64
	// AutoTune enables the router-side ring balancer (balance.go): at every
	// epoch end each node's steady frame cadence over the epoch (the same
	// histograms hedging judges stragglers by) is folded into an EWMA
	// service-time model, and each node's weight on the ring is retargeted
	// to fastest/service_time — so shard sizes converge to be proportional
	// to service rate and a slowed-but-alive node sheds load until every
	// node finishes its shard at about the same time. Weight changes are
	// queued and applied only at round starts, when no fetch goroutine is
	// live; the exactly-once ledger makes a mid-epoch re-weight safe by
	// construction (only still-unserved IDs are ever re-requested).
	AutoTune bool
	// OnFetchError observes every failed shard fetch attempt.
	OnFetchError func(node string, epoch, attempt int, err error)
	// Sleep replaces time.Sleep for retry backoff (tests; nil = time.Sleep).
	Sleep func(time.Duration)
	// Logf receives routing logs (nil = silent).
	Logf func(format string, args ...any)
}

// Counters are the routing counts of one epoch (EpochStats) or their
// field-wise sum over a Run (Stats).
type Counters struct {
	// Batches/Bytes count delivered (deduplicated) batches.
	Batches int
	Bytes   int64
	// Rounds is how many routing rounds the epoch took (1 = no failover).
	Rounds int
	// NodeFailures counts nodes marked down by a failed fetch during the
	// epoch. A failed dial at the epoch's start is not one: it moves no batch.
	NodeFailures int
	// Rerouted counts batches that were re-assigned away from a dead node.
	Rerouted int
	// Ignored counts frames dropped by the exactly-once filter (duplicate or
	// out-of-plan global IDs). Zero in a correct cluster without hedging:
	// the router only ever re-requests unserved IDs. With hedging, a
	// primary and its hedge can race the same ID, so Ignored equals
	// HedgeWasted — anything beyond that is a protocol violation.
	Ignored int
	// Hedged counts batches speculatively re-issued to another ring member
	// while their primary was still in flight. HedgeWon counts hedged
	// batches whose speculative copy arrived first; HedgeWasted counts the
	// duplicate frames hedging caused (every one is also Ignored).
	Hedged, HedgeWon, HedgeWasted int
	// PerNode maps node ID to batches delivered by it.
	PerNode map[string]int
}

// add folds o into c, field by field.
func (c *Counters) add(o *Counters) {
	c.Batches += o.Batches
	c.Bytes += o.Bytes
	c.Rounds += o.Rounds
	c.NodeFailures += o.NodeFailures
	c.Rerouted += o.Rerouted
	c.Ignored += o.Ignored
	c.Hedged += o.Hedged
	c.HedgeWon += o.HedgeWon
	c.HedgeWasted += o.HedgeWasted
	for n, b := range o.PerNode {
		c.PerNode[n] += b
	}
}

// EpochStats summarizes one routed epoch.
type EpochStats struct {
	Epoch int
	Counters
}

// Stats aggregates a multi-epoch Run: Counters is the sum of its epochs'.
type Stats struct {
	Epochs  int
	Elapsed time.Duration
	Counters
}

// BatchesPerSec is the aggregate delivered-batch throughput.
func (s *Stats) BatchesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Batches) / s.Elapsed.Seconds()
}

// Retry and hedge pacing. None of these has a caller that wants another
// value, so they are constants, not Config fields.
const (
	// nodeRetries is how many extra same-node attempts a failed shard fetch
	// gets before the node is declared dead and its unserved batches are
	// rerouted. Only the still-unserved IDs are re-requested, so a retry
	// never re-delivers a batch.
	nodeRetries = 1
	// retryBackoffBase / retryBackoffMax shape the jittered sleep before a
	// same-node retry (serve.Backoff).
	retryBackoffBase = 50 * time.Millisecond
	retryBackoffMax  = time.Second
	// hedgeInterval is the period of a round's hedge pass. It runs on the
	// real clock: the stalls it exists to catch are wall-clock stalls.
	hedgeInterval = 2 * time.Millisecond
	// hedgeMinSamples is how many peer latency observations the judging
	// population needs before hedging arms: hedging off a cold histogram
	// would fire on noise. Two arm it once both healthy peers of a three-node
	// cluster have delivered a frame; the hedgeMinDelay floor, not a larger
	// count, keeps those two samples from hedging on jitter.
	hedgeMinSamples = 2
	// hedgeMinDelay floors the hedge threshold. Hedging arms on
	// hedgeMinSamples peer gaps, whose quantile is about their maximum, so
	// without a floor a healthy peer's warm-up or scheduling jitter draws
	// noise hedges, and their recomputes steal CPU from the round. 250ms is
	// measured: on three healthy local nodes it ended ~30–40 noise hedges
	// per run.
	hedgeMinDelay = 250 * time.Millisecond
)

// Client consumes epochs from a preprocessing cluster. Every epoch is one
// loop of routing rounds: assign the unserved IDs across alive nodes on the
// ring, fetch each node's shard concurrently, deduplicate every frame
// through the epoch's exactly-once ledger, and re-route whatever is still
// unserved (a dead node's shard) in the next round. Hedging (hedge.go) runs
// inside a round; re-weighting (balance.go) runs between rounds. Exactly-once
// delivery holds by construction — the router only ever requests IDs it has
// not received — and the ledger enforces it against misbehaving nodes. Not
// safe for concurrent use; run one Client per goroutine.
//
// Liveness comes from the router's own traffic: a node goes down when its
// fetch fails after the same-node retry (or its plan handshake fails), and
// comes back only at the start of an epoch, when every down node is dialled
// once (revive).
type Client struct {
	cfg     Config
	ring    *Ring
	clients map[string]*serve.Client
	addrOf  map[string]string

	// downMu guards down: a round's fetch goroutines mark nodes down while
	// the hedge pass reads the set.
	downMu sync.Mutex
	down   map[string]bool

	// jitterMu guards jitter: concurrent fetches of one round may retry at
	// once.
	jitterMu sync.Mutex
	jitter   *rng.Stream

	planLen int
	ack     serve.HelloAck
	haveAck bool

	lat latency // per-node batch-arrival histograms both policies read
	bal balance // ring re-weighting state

	// hedgeMinDelay floors the hedge threshold (the hedgeMinDelay constant;
	// in-package tests lower it).
	hedgeMinDelay time.Duration
}

// New builds a cluster client. No connections are made until the first run.
func New(cfg Config) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	seed := int64(fnv1a(cfg.Name)) ^ 0x636c7573746572 // "cluster"
	c := &Client{
		cfg:     cfg,
		ring:    NewRing(),
		clients: make(map[string]*serve.Client),
		addrOf:  make(map[string]string),
		down:    make(map[string]bool),
		jitter:  rng.New(seed, "cluster/retry"),
		lat:     newLatency(),

		hedgeMinDelay: hedgeMinDelay,
	}
	if cfg.AutoTune {
		c.bal.balancer = control.NewBalancer()
		c.bal.snap = make(map[string]histSnap)
	}
	for i := range cfg.Nodes {
		if cfg.Nodes[i].ID == "" {
			cfg.Nodes[i].ID = cfg.Nodes[i].Addr
		}
		id := cfg.Nodes[i].ID
		if _, dup := c.clients[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", id)
		}
		c.ring.Add(id)
		c.addrOf[id] = cfg.Nodes[i].Addr
		c.clients[id] = serve.NewClient(serve.ClientConfig{
			Addr:        cfg.Nodes[i].Addr,
			Name:        sessionName(cfg.Name + "@" + id),
			Tenant:      cfg.Tenant,
			DialTimeout: cfg.DialTimeout,
		})
	}
	return c, nil
}

// sessionName cuts a node session's label to the bytes a Hello name may
// carry: a long Name or node ID must not get every handshake refused.
func sessionName(s string) string { return s[:min(len(s), serve.MaxHelloString)] }

// Alive returns the IDs of the nodes not in the down-set. Before the first
// epoch every node is alive.
func (c *Client) Alive() map[string]bool {
	c.downMu.Lock()
	defer c.downMu.Unlock()
	out := make(map[string]bool, len(c.clients))
	for id := range c.clients {
		if !c.down[id] {
			out[id] = true
		}
	}
	return out
}

func (c *Client) setDown(id string, down bool) {
	c.downMu.Lock()
	defer c.downMu.Unlock()
	if down {
		c.down[id] = true
	} else {
		delete(c.down, id)
	}
}

// Ack returns a node's handshake response once any node has answered.
func (c *Client) Ack() (serve.HelloAck, bool) { return c.ack, c.haveAck }

// Close disconnects every node session.
func (c *Client) Close() error {
	var first error
	for _, sc := range c.clients {
		if err := sc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ensurePlan learns the epoch plan length from the first alive node's
// handshake, in member-ID order. Every node serves the same spec, so any ack
// is authoritative. A node that fails it is marked down.
func (c *Client) ensurePlan() error {
	if c.haveAck {
		return nil
	}
	var lastErr error
	alive := c.Alive()
	for _, id := range c.ring.Nodes() {
		if !alive[id] {
			continue
		}
		sc := c.clients[id]
		if err := sc.Connect(); err != nil {
			lastErr = err
			c.setDown(id, true)
			continue
		}
		c.ack, c.haveAck = sc.Ack()
		c.planLen = c.ack.PlanBatches
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: no alive nodes")
	}
	return fmt.Errorf("cluster: handshake failed on every node: %w", lastErr)
}

// revive runs at the start of every epoch and is the only way back into
// the routing set: each down node gets one Connect, all at once, joined
// before round 0, and a node that completes the handshake is up for the
// epoch. A node never rejoins mid-epoch, so one that accepts dials but
// breaks every stream costs one failover per epoch, not one per round.
func (c *Client) revive() {
	c.downMu.Lock()
	var dial []string
	for id := range c.down {
		dial = append(dial, id)
	}
	c.downMu.Unlock()
	var wg sync.WaitGroup
	for _, id := range dial {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.clients[id].Connect(); err == nil {
				c.setDown(id, false)
			}
		}()
	}
	wg.Wait()
}

// epochState is the exactly-once ledger for one routed epoch, and the
// epoch's counters under the same lock.
type epochState struct {
	mu       sync.Mutex
	received map[int]bool
	// hedged marks IDs a speculative fetch was issued for, so a late primary
	// frame for one of them is attributed to HedgeWasted, not to a protocol
	// violation.
	hedged map[int]bool
	stats  *EpochStats
}

// unserved filters ids down to those not yet received.
func (st *epochState) unserved(ids []int) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if !st.received[id] {
			out = append(out, id)
		}
	}
	return out
}

// nodeFetch is one node's record in a routing round.
type nodeFetch struct {
	ids     []int     // assigned this round; never changes once the round starts
	last    time.Time // last progress: a fetch attempt's start or a frame's arrival
	seen    bool      // a frame arrived this round: the node's warm-up is over
	done    bool      // the primary fetch returned
	flagged bool      // judged stalled and hedged this round (until retracted)
	aborted bool      // severed on purpose once hedges delivered its IDs
}

// round is one routing round: a record per assigned node, and the hedge
// streams to sever at its end. mu guards everything but the records' ids.
type round struct {
	mu     sync.Mutex
	nodes  map[string]*nodeFetch
	hedges []*serve.Client
	closed bool
}

func newRound(byNode map[string][]int, now time.Time) *round {
	rd := &round{nodes: make(map[string]*nodeFetch, len(byNode))}
	for node, ids := range byNode {
		rd.nodes[node] = &nodeFetch{ids: ids, last: now}
	}
	return rd
}

// stamp records progress on node and returns the previous stamp. frame marks
// a frame arrival; first reports whether it was the node's first this round,
// which ends its warm-up (dial, handshake, pipeline spin-up, first batch).
func (rd *round) stamp(node string, frame bool) (prev time.Time, first bool) {
	now := time.Now()
	rd.mu.Lock()
	defer rd.mu.Unlock()
	nf := rd.nodes[node]
	prev, nf.last = nf.last, now
	if frame {
		first, nf.seen = !nf.seen, true
	}
	return prev, first
}

func (rd *round) finish(node string) {
	rd.mu.Lock()
	rd.nodes[node].done = true
	rd.mu.Unlock()
}

func (rd *round) aborted(node string) bool {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	return rd.nodes[node].aborted
}

func (rd *round) isClosed() bool {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	return rd.closed
}

// close severs every in-flight hedge stream. Once the primaries are done the
// round's outcome is decided — anything still unserved goes to the next
// routing round — and waiting for a speculative stream to drain would add
// the successor's recompute tail to the epoch's critical path (a hedged
// epoch must never be slower than an unhedged one because of its own
// insurance).
func (rd *round) close() {
	rd.mu.Lock()
	hedges := rd.hedges
	rd.hedges = nil
	rd.closed = true
	rd.mu.Unlock()
	for _, hc := range hedges {
		hc.Kick()
	}
}

// RunEpoch routes one epoch: every batch of the plan is delivered to onBatch
// exactly once (node names which member served it), or an error is returned
// once no routing round can make progress. The concatenation of payloads in
// global-ID order is byte-identical to a single-node epoch stream.
//
// onBatch runs on the goroutine of whichever node stream delivered the batch
// (several may call it at once), and b and payload are lent, not given: they
// point into that stream's receive buffer and are valid only until onBatch
// returns (serve.Client.Run). Keep a batch with b.Clone(), frame bytes with a
// copy.
func (c *Client) RunEpoch(epoch int, onBatch func(node string, b *serve.Batch, payload []byte)) (*EpochStats, error) {
	stats := &EpochStats{Epoch: epoch, Counters: Counters{PerNode: make(map[string]int)}}
	c.revive()
	if err := c.ensurePlan(); err != nil {
		return stats, err
	}
	remaining := make([]int, c.planLen)
	for i := range remaining {
		remaining[i] = i
	}
	st := &epochState{received: make(map[int]bool), hedged: make(map[int]bool), stats: stats}

	for round := 0; len(remaining) > 0; round++ {
		// Round start is the balance policy's safe point: the previous
		// round's fetch and hedge goroutines are joined, so queued re-weights
		// land on the ring before Assign partitions the remaining work.
		c.applyPendingWeights()
		// Every round that leaves work unserved marks a node down, and none
		// comes back before the next epoch, so the cap only brakes a bug.
		if round >= 4+2*len(c.cfg.Nodes) {
			return stats, fmt.Errorf("cluster: epoch %d: %d batches still unserved after %d routing rounds",
				epoch, len(remaining), round)
		}
		alive := c.Alive()
		if len(alive) == 0 {
			return stats, fmt.Errorf("cluster: epoch %d: no alive nodes with %d batches unserved",
				epoch, len(remaining))
		}
		if round > 0 {
			stats.Rerouted += len(remaining)
			c.cfg.Logf("cluster: epoch %d round %d: rerouting %d batches across %d nodes",
				epoch, round, len(remaining), len(alive))
		}
		asn := c.ring.Assign(remaining, alive)
		stats.Rounds = round + 1
		c.runRound(epoch, asn.ByNode, st, onBatch)
		remaining = st.unserved(remaining)
	}
	c.observeBalance()
	return stats, nil
}

// runRound fetches one round's assignment: a primary fetch per node, and —
// with hedging on and a peer to hedge to — a hedge pass every hedgeInterval
// on this goroutine, between fetch completions, until the last primary
// returns. Hedge streams still open then are severed and joined before
// runRound returns, so no goroutine of this round outlives it.
func (c *Client) runRound(epoch int, byNode map[string][]int, st *epochState, onBatch func(string, *serve.Batch, []byte)) {
	rd := newRound(byNode, time.Now())
	done := make(chan struct{}, len(byNode))
	for node, ids := range byNode {
		go func() {
			if err := c.fetchNode(epoch, node, ids, st, rd, onBatch); err != nil {
				st.mu.Lock()
				st.stats.NodeFailures++
				st.mu.Unlock()
				c.setDown(node, true)
			}
			rd.finish(node)
			done <- struct{}{}
		}()
	}
	var hedges sync.WaitGroup
	var tick <-chan time.Time
	if c.cfg.HedgeQuantile > 0 && len(byNode) > 1 {
		t := time.NewTicker(hedgeInterval)
		defer t.Stop()
		tick = t.C
	}
	for running := len(byNode); running > 0; {
		select {
		case <-done:
			running--
		case <-tick:
			c.hedgePass(epoch, rd, st, &hedges, onBatch)
		}
	}
	rd.close()
	hedges.Wait()
}

// deliver runs a received frame through the exactly-once filter and credits
// it. hedge marks frames arriving on a speculative stream: a duplicate on
// either side of a hedged ID is the race's loser and lands in HedgeWasted as
// well as Ignored.
func (c *Client) deliver(st *epochState, node string, b *serve.Batch, payload []byte, hedge bool, onBatch func(string, *serve.Batch, []byte)) {
	st.mu.Lock()
	if b.GlobalID < 0 || b.GlobalID >= c.planLen || st.received[b.GlobalID] {
		st.stats.Ignored++
		if hedge || st.hedged[b.GlobalID] {
			st.stats.HedgeWasted++
		}
		st.mu.Unlock()
		return
	}
	st.received[b.GlobalID] = true
	if hedge {
		st.stats.HedgeWon++
	}
	st.stats.Batches++
	st.stats.Bytes += int64(len(payload)) + serve.FrameHeaderSize
	st.stats.PerNode[node]++
	st.mu.Unlock()
	if onBatch != nil {
		onBatch(node, b, payload)
	}
}

// observe stamps a frame arrival on node and feeds the gap since its
// previous progress into the right latency population: the round's first
// frame measures warm-up, every later frame steady inter-arrival cadence.
func (c *Client) observe(rd *round, node string) {
	prev, first := rd.stamp(node, true)
	c.lat.record(node, first, time.Since(prev))
}

// fetchNode streams one node's assigned IDs, retrying the node itself (with
// only the still-unserved IDs) nodeRetries times before giving it up. The
// serve.Client is owned by this goroutine for the duration of the round —
// Assign hands each node to exactly one fetchNode call per round; hedges use
// fresh clients. A fetch severed by the hedge policy (abortIfRunning+Kick)
// is not a node failure: its work was delivered elsewhere, and reporting it
// would wrongly push a merely-degraded node toward dead.
func (c *Client) fetchNode(epoch int, node string, ids []int, st *epochState, rd *round, onBatch func(string, *serve.Batch, []byte)) error {
	sc := c.clients[node]
	var lastErr error
	for attempt := 0; attempt <= nodeRetries; attempt++ {
		need := st.unserved(ids)
		if len(need) == 0 {
			return nil
		}
		if attempt > 0 {
			c.jitterMu.Lock()
			d := serve.Backoff(retryBackoffBase, retryBackoffMax, attempt, c.jitter)
			c.jitterMu.Unlock()
			c.cfg.Sleep(d)
		}
		rd.stamp(node, false)
		err := sc.FetchShard(epoch, need, func(b *serve.Batch, payload []byte) {
			c.observe(rd, node)
			c.deliver(st, node, b, payload, false, onBatch)
		})
		if err == nil {
			return nil
		}
		if rd.aborted(node) {
			return nil
		}
		lastErr = err
		if c.cfg.OnFetchError != nil {
			c.cfg.OnFetchError(node, epoch, attempt+1, err)
		}
		c.cfg.Logf("cluster: epoch %d node %s attempt %d: %v", epoch, node, attempt+1, err)
	}
	return lastErr
}

// Run routes epochs 0..epochs-1; its Stats are the field-wise sum of their
// EpochStats. onBatch is under RunEpoch's contract: b and payload are valid
// only until it returns.
func (c *Client) Run(epochs int, onBatch func(node string, b *serve.Batch, payload []byte)) (*Stats, error) {
	out := &Stats{Counters: Counters{PerNode: make(map[string]int)}}
	start := time.Now()
	defer func() { out.Elapsed = time.Since(start) }()
	for e := 0; e < epochs; e++ {
		es, err := c.RunEpoch(e, onBatch)
		out.add(&es.Counters)
		if err != nil {
			return out, fmt.Errorf("cluster: epoch %d: %w", e, err)
		}
		out.Epochs++
	}
	return out, nil
}
