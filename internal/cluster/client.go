package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lotus/internal/control"
	"lotus/internal/rng"
	"lotus/internal/serve"
)

// Config parameterizes a cluster client.
type Config struct {
	// Nodes is the cluster's member list. Every node must serve the same
	// workload spec: the epoch plan is derived from (spec, seed, epoch), so
	// any node can produce any batch, byte-identically.
	Nodes []Node
	// Replication is the preferred replica-set size per batch on the hash
	// ring (default 1). Larger values keep a batch's failover targets
	// ring-determined and its server-side caches warm on R nodes.
	Replication int
	// Name labels this consumer's sessions in node metrics.
	Name string
	// Tenant is the QoS accounting bucket every node session (primary and
	// hedge) bills to; empty means each node's default tenant. Pure
	// passthrough — quotas live server-side, so a router cannot exempt
	// itself by misconfiguration.
	Tenant string
	// BackoffBase/BackoffMax shape the jittered sleep before a same-node
	// retry (defaults 50ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the retry jitter (0 derives one from Name).
	JitterSeed int64
	// DialTimeout is passed to each node's serve.Client.
	DialTimeout time.Duration
	// Membership, when non-nil, is an externally-owned (typically actively
	// probing) membership view; nil builds an internal passive one that only
	// the router's own failure reports update.
	Membership *Membership
	// HedgeQuantile, when > 0, enables hedged fetches — the consumer-side
	// straggler mitigation: a node whose in-flight shard has made no
	// progress for longer than this quantile of the cluster's recent batch
	// inter-arrival latency gets its still-unserved IDs speculatively
	// re-issued to each batch's ring successor. The exactly-once ledger
	// deduplicates, so the first byte-identical answer wins; the loser's
	// frames land in Ignored/HedgeWasted. A primary whose remaining work a
	// hedge fully delivered is severed (Kick) so the round does not wait out
	// its stall. 0.95 is the conventional choice. 0 disables hedging.
	HedgeQuantile float64
	// HedgeMinSamples is how many peer latency observations must exist in
	// the judging population (warm-up gaps for a node with no frame yet this
	// round, steady inter-arrivals otherwise) before hedging arms (default
	// 8): hedging off a cold histogram would fire on noise.
	HedgeMinSamples int
	// HedgeInterval is the hedge monitor's poll period (default 2ms).
	HedgeInterval time.Duration
	// HedgeMinDelay floors the hedge threshold (default 1ms) so a uniformly
	// fast cluster never hedges on microsecond jitter.
	HedgeMinDelay time.Duration
	// AutoTune enables the router-side ring balancer: at every epoch end the
	// per-node steady frame cadence (the same histograms the hedge monitor
	// judges stragglers by) is folded into an EWMA service-time model, and
	// each node's vnode weight on the ring is retargeted to
	// fastest/service_time — so shard sizes converge to be proportional to
	// service rate and a slowed-but-alive node sheds load until every node
	// finishes its shard at about the same time. Weight changes are queued
	// and applied only at round/epoch boundaries on the router goroutine;
	// the exactly-once ledger makes a mid-epoch re-weight safe by
	// construction (only still-unserved IDs are ever re-requested).
	AutoTune bool
	// Balancer overrides the balancer's smoothing, dead-band, and pacing
	// (zero values take control.BalancerConfig defaults).
	Balancer control.BalancerConfig
	// OnFetchError observes every failed shard fetch attempt.
	OnFetchError func(node string, epoch, attempt int, err error)
	// OnReroute observes each failover: the batch IDs being moved away from
	// dead nodes at the start of a routing round.
	OnReroute func(epoch int, ids []int)
	// Sleep replaces time.Sleep for retry backoff (tests; nil = time.Sleep).
	Sleep func(time.Duration)
	// Logf receives routing logs (nil = silent).
	Logf func(format string, args ...any)
}

// EpochStats summarizes one routed epoch.
type EpochStats struct {
	Epoch int
	// Batches/Bytes count delivered (deduplicated) batches.
	Batches int
	Bytes   int64
	// Rounds is how many routing rounds the epoch took (1 = no failover).
	Rounds int
	// NodeFailures counts nodes declared dead during the epoch.
	NodeFailures int
	// Rerouted counts batches that were re-assigned away from a dead node.
	Rerouted int
	// Spilled counts batches served outside their preferred replica set.
	Spilled int
	// Ignored counts frames dropped by the exactly-once filter (duplicate or
	// out-of-plan global IDs). Zero in a correct cluster without hedging:
	// the router only ever re-requests unserved IDs. With hedging, a
	// primary and its hedge can race the same ID, so Ignored equals
	// HedgeWasted — anything beyond that is a protocol violation.
	Ignored int
	// Hedged counts batches speculatively re-issued to a ring successor
	// while their primary was still in flight. HedgeWon counts hedged
	// batches whose speculative copy arrived first; HedgeWasted counts the
	// duplicate frames hedging caused (every one is also Ignored).
	Hedged, HedgeWon, HedgeWasted int
	// PerNode maps node ID to batches delivered by it.
	PerNode map[string]int
}

// Stats aggregates a multi-epoch Run.
type Stats struct {
	Epochs       int
	Batches      int
	Bytes        int64
	NodeFailures int
	Rerouted     int
	Ignored      int
	Hedged       int
	HedgeWon     int
	HedgeWasted  int
	Elapsed      time.Duration
	PerNode      map[string]int
}

// BatchesPerSec is the aggregate delivered-batch throughput.
func (s *Stats) BatchesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Batches) / s.Elapsed.Seconds()
}

// Client consumes epochs from a preprocessing cluster: it partitions each
// epoch's batch plan across alive nodes with the consistent-hash ring,
// streams the per-node shards concurrently, and on node death re-routes that
// node's unserved batches to survivors mid-epoch. Exactly-once delivery
// holds by construction — the router only ever requests IDs it has not
// received — and a received-set filter enforces it against misbehaving
// nodes. Not safe for concurrent use; run one Client per goroutine.
type Client struct {
	cfg     Config
	ring    *Ring
	mem     *Membership
	clients map[string]*serve.Client
	addrOf  map[string]string
	jitter  *rng.Stream

	planLen int
	ack     serve.HelloAck
	haveAck bool

	// histMu guards the per-node latency histograms the hedge monitor
	// derives its thresholds from. They accumulate across rounds and epochs:
	// recent latency, not per-round latency, defines "abnormally slow". Two
	// populations are kept apart because they differ by an order of
	// magnitude: firstHists holds each round's start-to-first-frame gap
	// (dial, handshake, pipeline spin-up, first batch), hists holds the
	// steady mid-stream inter-arrival cadence. A node that has not produced
	// its first frame yet is judged against peers' first-frame quantile —
	// folding warm-up gaps into the steady histogram would either inflate
	// the mid-stream threshold to warm-up scale or, kept apart but applied
	// uniformly, flag every node as stalled during round start. The
	// threshold for judging a node is always computed from its PEERS' merged
	// histograms — a consistent straggler must not be able to normalize its
	// own cadence into the quantile and dodge hedging.
	histMu     sync.Mutex
	hists      map[string]*serve.LatencyHist
	firstHists map[string]*serve.LatencyHist

	// balancer, when Config.AutoTune is set, converts per-epoch windows of
	// the steady histograms into ring vnode weights. balSnap remembers each
	// histogram's (sum, total) at the last epoch boundary so the window is a
	// delta, not the lifetime aggregate.
	balancer *control.Balancer
	balSnap  map[string]histSnap

	// pendMu guards weight changes queued for the next safe point — a round
	// or epoch boundary on the router goroutine, when no fetch or hedge
	// goroutine can be walking the ring — plus the applied-move counter.
	pendMu      sync.Mutex
	pending     map[string]float64
	weightMoves int
}

// histSnap is one histogram's cumulative (sum, total) at a window boundary.
type histSnap struct {
	sum   time.Duration
	total int64
}

// New builds a cluster client. No connections are made until the first run.
func New(cfg Config) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.HedgeMinSamples <= 0 {
		cfg.HedgeMinSamples = 8
	}
	if cfg.HedgeInterval <= 0 {
		cfg.HedgeInterval = 2 * time.Millisecond
	}
	if cfg.HedgeMinDelay <= 0 {
		cfg.HedgeMinDelay = time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = int64(fnv1a(cfg.Name)) ^ 0x636c7573746572 // "cluster"
	}
	c := &Client{
		cfg:        cfg,
		ring:       NewRing(DefaultVNodes),
		clients:    make(map[string]*serve.Client),
		addrOf:     make(map[string]string),
		hists:      make(map[string]*serve.LatencyHist),
		firstHists: make(map[string]*serve.LatencyHist),
		jitter:     rng.New(seed, "cluster/retry"),
	}
	if cfg.AutoTune {
		c.balancer = control.NewBalancer(cfg.Balancer)
		c.balSnap = make(map[string]histSnap)
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
			Name:        cfg.Name + "@" + id,
			Tenant:      cfg.Tenant,
			DialTimeout: cfg.DialTimeout,
			JitterSeed:  seed + int64(i) + 1,
		})
	}
	c.mem = cfg.Membership
	if c.mem == nil {
		c.mem = NewMembership(MembershipConfig{Nodes: cfg.Nodes, JitterSeed: seed})
	}
	return c, nil
}

// Membership exposes the client's liveness view (for /cluster-style
// introspection and tests).
func (c *Client) Membership() *Membership { return c.mem }

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
// handshake. Every node serves the same spec, so any ack is authoritative.
func (c *Client) ensurePlan() error {
	if c.haveAck {
		return nil
	}
	var lastErr error
	alive := c.mem.Alive()
	for _, id := range c.ring.Nodes() {
		if !alive[id] {
			continue
		}
		sc := c.clients[id]
		if err := sc.Connect(); err != nil {
			lastErr = err
			c.mem.ReportFailure(id, err)
			continue
		}
		ack, _ := sc.Ack()
		c.ack = ack
		c.haveAck = true
		c.planLen = ack.PlanBatches
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: no alive nodes")
	}
	return fmt.Errorf("cluster: handshake failed on every node: %w", lastErr)
}

// backoff returns the jittered sleep before same-node retry attempt k
// (1-based): exponential with a cap, jittered into [d/2, d).
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.cfg.BackoffMax {
			d = c.cfg.BackoffMax
			break
		}
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	half := d / 2
	return half + time.Duration(c.jitter.Float64()*float64(half))
}

// SetNodeWeight queues a ring weight override for node (w in [0, 1] of full
// vnode weight), applied at the next round or epoch boundary. Safe to call
// from any goroutine — including mid-epoch from an onBatch callback or an
// operator control surface — because the ring itself is only ever touched at
// safe points on the router goroutine; the exactly-once ledger guarantees a
// re-weighted reroute never re-delivers a batch. Returns false for a node
// the client does not know.
func (c *Client) SetNodeWeight(node string, w float64) bool {
	if _, ok := c.clients[node]; !ok {
		return false
	}
	c.pendMu.Lock()
	if c.pending == nil {
		c.pending = make(map[string]float64)
	}
	c.pending[node] = w
	c.pendMu.Unlock()
	return true
}

// applyPendingWeights drains the queued weight changes into the ring. Called
// only from the router goroutine at round/epoch boundaries, while no fetch,
// hedge, or monitor goroutine is live to walk the ring concurrently.
func (c *Client) applyPendingWeights() {
	c.pendMu.Lock()
	pending := c.pending
	c.pending = nil
	c.pendMu.Unlock()
	if len(pending) == 0 {
		return
	}
	nodes := make([]string, 0, len(pending))
	for n := range pending {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if c.ring.SetWeight(n, pending[n]) {
			c.pendMu.Lock()
			c.weightMoves++
			c.pendMu.Unlock()
			c.cfg.Logf("cluster: ring weight %s -> %.2f", n, pending[n])
		}
	}
}

// Weights reports the ring's current per-node weights. Call it from the
// router's goroutine (between runs); it reads the ring unlocked.
func (c *Client) Weights() map[string]float64 {
	out := make(map[string]float64, len(c.clients))
	for _, n := range c.ring.Nodes() {
		out[n] = c.ring.Weight(n)
	}
	return out
}

// WeightMoves reports how many applied weight changes actually moved ring
// points.
func (c *Client) WeightMoves() int {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	return c.weightMoves
}

// observeBalance is the balancer's epoch tick: it windows each node's steady
// histogram since the last boundary, feeds the window to the balancer, and
// queues any proposed re-weight for the next epoch's first round.
func (c *Client) observeBalance() {
	if c.balancer == nil {
		return
	}
	c.histMu.Lock()
	nodes := make([]string, 0, len(c.hists))
	for n := range c.hists {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	samples := make([]control.NodeSample, 0, len(nodes))
	for _, node := range nodes {
		h := c.hists[node]
		prev := c.balSnap[node]
		dTotal := h.Total - prev.total
		dSum := h.Sum - prev.sum
		c.balSnap[node] = histSnap{sum: h.Sum, total: h.Total}
		if dTotal > 0 {
			samples = append(samples, control.NodeSample{
				Node: node, Batches: dTotal, PerBatch: dSum / time.Duration(dTotal)})
		}
	}
	c.histMu.Unlock()
	if weights := c.balancer.Observe(samples); weights != nil {
		for node, w := range weights {
			c.SetNodeWeight(node, w)
		}
		c.cfg.Logf("cluster: autotune re-weight: %s", c.balancer)
	}
}

// epochState is the shared exactly-once ledger for one routed epoch.
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

// allReceived reports whether every id has been delivered.
func (st *epochState) allReceived(ids []int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range ids {
		if !st.received[id] {
			return false
		}
	}
	return true
}

// addHedged marks ids as speculatively re-issued and counts them once each.
func (st *epochState) addHedged(ids []int) {
	st.mu.Lock()
	for _, id := range ids {
		if !st.hedged[id] {
			st.hedged[id] = true
			st.stats.Hedged++
		}
	}
	st.mu.Unlock()
}

// roundCtl tracks one routing round's in-flight node fetches for the hedge
// monitor: per-node progress timestamps, completion, and deliberate aborts.
type roundCtl struct {
	mu      sync.Mutex
	byNode  map[string][]int
	last    map[string]time.Time
	seen    map[string]bool
	done    map[string]bool
	hedged  map[string]bool
	aborted map[string]bool
	hedges  []*serve.Client
	closed  bool
}

func newRoundCtl(byNode map[string][]int, now time.Time) *roundCtl {
	rc := &roundCtl{
		byNode:  byNode,
		last:    make(map[string]time.Time, len(byNode)),
		seen:    make(map[string]bool, len(byNode)),
		done:    make(map[string]bool, len(byNode)),
		hedged:  make(map[string]bool, len(byNode)),
		aborted: make(map[string]bool, len(byNode)),
	}
	for node := range byNode {
		rc.last[node] = now
	}
	return rc
}

// touch stamps progress on node and returns the previous stamp.
func (rc *roundCtl) touch(node string) (prev time.Time) {
	now := time.Now()
	rc.mu.Lock()
	prev = rc.last[node]
	rc.last[node] = now
	rc.mu.Unlock()
	return prev
}

// frameTouch stamps a frame arrival on node, returning the previous stamp
// and whether this was the node's first frame of the round (which marks the
// end of its warm-up: dial, handshake, pipeline spin-up, first batch).
func (rc *roundCtl) frameTouch(node string) (prev time.Time, first bool) {
	now := time.Now()
	rc.mu.Lock()
	prev = rc.last[node]
	rc.last[node] = now
	first = !rc.seen[node]
	rc.seen[node] = true
	rc.mu.Unlock()
	return prev, first
}

func (rc *roundCtl) markDone(node string) {
	rc.mu.Lock()
	rc.done[node] = true
	rc.mu.Unlock()
}

func (rc *roundCtl) isAborted(node string) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.aborted[node]
}

// abortIfRunning marks node's primary as deliberately severed unless it
// already finished; the caller Kicks only on true, so a completed fetch's
// idle connection is (almost) never closed under it.
func (rc *roundCtl) abortIfRunning(node string) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.done[node] {
		return false
	}
	rc.aborted[node] = true
	return true
}

// registerHedge records a hedge stream's client so the round can sever it at
// teardown. False means the round is already over: the hedge must not start.
func (rc *roundCtl) registerHedge(hc *serve.Client) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return false
	}
	rc.hedges = append(rc.hedges, hc)
	return true
}

// unflag retracts a stall flag that produced no hedge (every candidate
// successor was itself flagged, dead, or the slow node). Without retraction,
// a monitor pass that flags several warming-up nodes at once deadlocks: each
// node's target walk excludes the others and nobody gets hedged for the rest
// of the round. Retracted nodes are re-judged on the next poll, by which
// time false positives have delivered frames and dropped out of the set.
func (rc *roundCtl) unflag(node string) {
	rc.mu.Lock()
	rc.hedged[node] = false
	rc.mu.Unlock()
}

// flaggedNodes snapshots the set of nodes this round has flagged as stalled.
func (rc *roundCtl) flaggedNodes() map[string]bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make(map[string]bool, len(rc.hedged))
	for node, f := range rc.hedged {
		if f {
			out[node] = true
		}
	}
	return out
}

func (rc *roundCtl) isClosed() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.closed
}

// closeRound severs every in-flight hedge stream. Once the primaries are
// done the round's outcome is decided — anything still unserved goes to the
// next routing round — and waiting for a speculative stream to drain would
// add the successor's recompute tail to the epoch's critical path (a hedged
// epoch must never be slower than an unhedged one because of its own
// insurance).
func (rc *roundCtl) closeRound() {
	rc.mu.Lock()
	hedges := rc.hedges
	rc.hedges = nil
	rc.closed = true
	rc.mu.Unlock()
	for _, hc := range hedges {
		hc.Kick()
	}
}

// laggard is one stalled node and the threshold it was judged against.
type laggard struct {
	node      string
	threshold time.Duration
}

// stalled returns the nodes that are still running, have not been hedged
// yet, and have made no progress for longer than their threshold (false from
// threshold means the node cannot be judged yet). The threshold callback
// receives whether the node has delivered a frame this round, so warm-up
// quiet and mid-stream quiet are judged against different populations.
//
// A node is only a straggler RELATIVE to peers that are making progress: if
// every node in the round is quiet past its threshold, the slowness is
// correlated — a loaded box, a consumer-side pause, round-start warm-up —
// and hedging would only add load to whatever is already saturated (worse,
// simultaneous flags used to exclude each other as hedge targets, so the
// one genuinely degraded node could end up with nowhere to hedge to). So a
// quiet node is flagged only while at least one other node is current:
// finished, or heard from within its own threshold.
func (rc *roundCtl) stalled(now time.Time, threshold func(node string, seen bool) (time.Duration, bool)) []laggard {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	current := 0
	var candidates []laggard
	for node := range rc.byNode {
		if rc.done[node] {
			current++
			continue
		}
		th, ok := threshold(node, rc.seen[node])
		if !ok {
			continue
		}
		if now.Sub(rc.last[node]) <= th {
			current++
			continue
		}
		if rc.hedged[node] || rc.aborted[node] {
			continue
		}
		candidates = append(candidates, laggard{node: node, threshold: th})
	}
	if current == 0 {
		return nil
	}
	for _, lag := range candidates {
		rc.hedged[lag.node] = true
	}
	return candidates
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
	stats := &EpochStats{Epoch: epoch, PerNode: make(map[string]int)}
	if err := c.ensurePlan(); err != nil {
		return stats, err
	}
	remaining := make([]int, c.planLen)
	for i := range remaining {
		remaining[i] = i
	}
	st := &epochState{
		received: make(map[int]bool, c.planLen),
		hedged:   make(map[int]bool),
		stats:    stats,
	}

	for round := 0; len(remaining) > 0; round++ {
		// Round start is a safe point: the previous round's fetch, hedge, and
		// monitor goroutines are fully joined, so queued re-weights (from the
		// balancer or SetNodeWeight) land on the ring before Assign partitions
		// the remaining work.
		c.applyPendingWeights()
		// The round cap is the brake against a node flapping
		// alive-but-broken forever.
		if round >= 4+2*len(c.cfg.Nodes) {
			return stats, fmt.Errorf("cluster: epoch %d: %d batches still unserved after %d routing rounds",
				epoch, len(remaining), round)
		}
		alive := c.mem.Alive()
		if len(alive) == 0 {
			return stats, fmt.Errorf("cluster: epoch %d: no alive nodes with %d batches unserved",
				epoch, len(remaining))
		}
		if round > 0 {
			stats.Rerouted += len(remaining)
			if c.cfg.OnReroute != nil {
				c.cfg.OnReroute(epoch, remaining)
			}
			c.cfg.Logf("cluster: epoch %d round %d: rerouting %d batches across %d nodes",
				epoch, round, len(remaining), len(alive))
		}
		asn := c.ring.Assign(remaining, alive, c.cfg.Replication)
		stats.Spilled += asn.Spilled
		stats.Rounds = round + 1

		rc := newRoundCtl(asn.ByNode, time.Now())
		var wg sync.WaitGroup
		for node, ids := range asn.ByNode {
			wg.Add(1)
			go func(node string, ids []int) {
				defer wg.Done()
				defer rc.markDone(node)
				if err := c.fetchNode(epoch, node, ids, st, rc, onBatch); err != nil {
					st.mu.Lock()
					stats.NodeFailures++
					st.mu.Unlock()
					c.mem.ReportFailure(node, err)
				}
			}(node, ids)
		}
		// The hedge monitor breaks the wg.Wait barrier's head-of-line
		// blocking: while primaries stream, it watches per-node progress and
		// speculatively re-issues a stalled node's unserved IDs to ring
		// successors, severing the stalled primary once its work is covered.
		// A single-node round has no successor to hedge to.
		var monDone chan struct{}
		stop := make(chan struct{})
		if c.cfg.HedgeQuantile > 0 && len(asn.ByNode) > 1 {
			monDone = make(chan struct{})
			go func() {
				defer close(monDone)
				c.hedgeMonitor(epoch, rc, st, onBatch, stop)
			}()
		}
		wg.Wait()
		close(stop)
		rc.closeRound()
		if monDone != nil {
			<-monDone
		}

		next := remaining[:0]
		st.mu.Lock()
		for _, id := range remaining {
			if !st.received[id] {
				next = append(next, id)
			}
		}
		st.mu.Unlock()
		remaining = next
	}
	c.observeBalance()
	return stats, nil
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
	st.stats.Bytes += int64(len(payload)) + 4
	st.stats.PerNode[node]++
	st.mu.Unlock()
	if onBatch != nil {
		onBatch(node, b, payload)
	}
}

// observe stamps progress on node and feeds the frame gap into the right
// latency histogram: the round's first frame measures warm-up (firstHists),
// every later frame measures steady inter-arrival cadence (hists).
func (c *Client) observe(rc *roundCtl, node string) {
	prev, first := rc.frameTouch(node)
	if prev.IsZero() {
		return
	}
	c.histMu.Lock()
	m := c.hists
	if first {
		m = c.firstHists
	}
	h := m[node]
	if h == nil {
		h = &serve.LatencyHist{}
		m[node] = h
	}
	h.Record(time.Since(prev))
	c.histMu.Unlock()
}

// nodeRetries is how many extra same-node attempts a failed shard fetch gets
// before the node is declared dead and its unserved batches are rerouted.
// Only the still-unserved IDs are re-requested, so a retry never re-delivers
// a batch.
const nodeRetries = 1

// fetchNode streams one node's assigned IDs, retrying the node itself (with
// only the still-unserved IDs) nodeRetries times before giving it up. The
// serve.Client is owned by this goroutine for the duration of the round —
// Assign hands each node to exactly one fetchNode call per round; hedges use
// fresh clients. A fetch severed by the hedge monitor (abortIfRunning+Kick)
// is not a node failure: its work was delivered elsewhere, and reporting it
// would wrongly push a merely-degraded node toward dead.
func (c *Client) fetchNode(epoch int, node string, ids []int, st *epochState, rc *roundCtl, onBatch func(string, *serve.Batch, []byte)) error {
	sc := c.clients[node]
	var lastErr error
	for attempt := 0; attempt <= nodeRetries; attempt++ {
		need := st.unserved(ids)
		if len(need) == 0 {
			return nil
		}
		if attempt > 0 {
			c.cfg.Sleep(c.backoff(attempt))
		}
		rc.touch(node)
		err := sc.FetchShard(epoch, need, func(b *serve.Batch, payload []byte) {
			c.observe(rc, node)
			c.deliver(st, node, b, payload, false, onBatch)
		})
		if err == nil {
			return nil
		}
		if rc.isAborted(node) {
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
	c.histMu.Lock()
	defer c.histMu.Unlock()
	m := c.hists
	if !seen {
		m = c.firstHists
	}
	var peers serve.LatencyHist
	for id, h := range m {
		if id != node {
			peers.Merge(h)
		}
	}
	if peers.Total < int64(c.cfg.HedgeMinSamples) {
		return 0, false
	}
	th := peers.Quantile(c.cfg.HedgeQuantile)
	if th < c.cfg.HedgeMinDelay {
		th = c.cfg.HedgeMinDelay
	}
	return th, true
}

// hedgeTargets groups a slow node's unserved IDs by ring successor: for each
// batch, the first alive node on its ownership walk that is not the slow
// node and is not itself flagged as stalled this round — insurance bought
// from a node already known to be struggling is worthless. Batches with no
// such successor are left to the normal reroute path.
func (c *Client) hedgeTargets(rc *roundCtl, slow string, ids []int) map[string][]int {
	alive := c.mem.Alive()
	flagged := rc.flaggedNodes()
	out := make(map[string][]int)
	for _, id := range ids {
		for _, n := range c.ring.Owners(BatchKey(id), 0) {
			if n != slow && alive[n] && !flagged[n] {
				out[n] = append(out[n], id)
				break
			}
		}
	}
	return out
}

// hedgeMonitor watches a round's in-flight fetches and speculatively
// re-issues a stalled node's unserved IDs. It polls on the real clock —
// stalls it exists to catch are wall-clock stalls.
func (c *Client) hedgeMonitor(epoch int, rc *roundCtl, st *epochState, onBatch func(string, *serve.Batch, []byte), stop <-chan struct{}) {
	var hwg sync.WaitGroup
	defer hwg.Wait()
	for {
		select {
		case <-stop:
			return
		case <-time.After(c.cfg.HedgeInterval):
		}
		for _, lag := range rc.stalled(time.Now(), c.hedgeThreshold) {
			slow := lag.node
			unserved := st.unserved(rc.byNode[slow])
			if len(unserved) == 0 {
				continue
			}
			targets := c.hedgeTargets(rc, slow, unserved)
			hedging := make([]int, 0, len(unserved))
			for _, ids := range targets {
				hedging = append(hedging, ids...)
			}
			if len(hedging) == 0 {
				rc.unflag(slow)
				continue
			}
			st.addHedged(hedging)
			c.cfg.Logf("cluster: epoch %d: node %s stalled past %v; hedging %d batches to %d successors",
				epoch, slow, lag.threshold, len(hedging), len(targets))
			for succ, ids := range targets {
				hwg.Add(1)
				go func(succ string, ids []int) {
					defer hwg.Done()
					c.hedgeFetch(epoch, slow, succ, ids, rc, st, onBatch)
				}(succ, ids)
			}
		}
	}
}

// hedgeFetch streams a slow node's unserved IDs from one ring successor on a
// fresh connection (the successor's primary client is busy with its own
// shard). On success, if nothing assigned to the slow node remains unserved,
// the slow primary is severed so the round stops waiting for it. Hedge
// failures are advisory — the primary and the normal reroute path still
// stand — so they are never reported to membership.
func (c *Client) hedgeFetch(epoch int, slow, succ string, ids []int, rc *roundCtl, st *epochState, onBatch func(string, *serve.Batch, []byte)) {
	hc := serve.NewClient(serve.ClientConfig{
		Addr:        c.addrOf[succ],
		Name:        c.cfg.Name + "@" + succ + "/hedge",
		Tenant:      c.cfg.Tenant,
		DialTimeout: c.cfg.DialTimeout,
	})
	defer hc.Close()
	if !rc.registerHedge(hc) {
		return
	}
	err := hc.FetchShardHedged(epoch, ids, func(b *serve.Batch, payload []byte) {
		c.deliver(st, succ, b, payload, true, onBatch)
	})
	if err != nil {
		// A round-teardown kick is the expected end of a hedge that lost the
		// race; only a hedge that died on its own is worth a log line.
		if !rc.isClosed() {
			c.cfg.Logf("cluster: epoch %d: hedge to %s for %s failed: %v", epoch, succ, slow, err)
		}
		return
	}
	if st.allReceived(rc.byNode[slow]) && rc.abortIfRunning(slow) {
		c.cfg.Logf("cluster: epoch %d: hedges covered node %s; severing its in-flight fetch", epoch, slow)
		c.clients[slow].Kick()
	}
}

// Run routes epochs 0..epochs-1 and aggregates their stats. onBatch is under
// RunEpoch's contract: b and payload are valid only until it returns.
func (c *Client) Run(epochs int, onBatch func(node string, b *serve.Batch, payload []byte)) (*Stats, error) {
	out := &Stats{PerNode: make(map[string]int)}
	start := time.Now()
	defer func() { out.Elapsed = time.Since(start) }()
	for e := 0; e < epochs; e++ {
		es, err := c.RunEpoch(e, onBatch)
		out.Batches += es.Batches
		out.Bytes += es.Bytes
		out.NodeFailures += es.NodeFailures
		out.Rerouted += es.Rerouted
		out.Ignored += es.Ignored
		out.Hedged += es.Hedged
		out.HedgeWon += es.HedgeWon
		out.HedgeWasted += es.HedgeWasted
		for n, b := range es.PerNode {
			out.PerNode[n] += b
		}
		if err != nil {
			return out, fmt.Errorf("cluster: epoch %d: %w", e, err)
		}
		out.Epochs++
	}
	return out, nil
}
