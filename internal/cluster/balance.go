package cluster

import (
	"sort"
	"sync"
	"time"

	"lotus/internal/control"
)

// Re-weighting is a policy over the routing loop's boundaries: at each epoch
// end the epoch's per-node steady cadence goes to the balancer, and its
// proposals (and SetNodeWeight calls) land on the ring at the next round
// start, when no fetch or hedge goroutine walks it. The exactly-once ledger
// makes a mid-epoch re-weight safe: a round only assigns unserved IDs.

// balance is the client's re-weighting state.
type balance struct {
	// balancer, when Config.AutoTune is set, converts per-epoch windows of
	// the steady latency histograms into ring weights. snap remembers each
	// histogram's (sum, total) at the last epoch boundary, so the window is
	// a delta, not the lifetime aggregate.
	balancer *control.Balancer
	snap     map[string]histSnap

	// mu guards the weight changes queued for the next round start, plus
	// the applied-move counter.
	mu      sync.Mutex
	pending map[string]float64
	moves   int
}

// histSnap is one histogram's cumulative (sum, total) at a window boundary.
type histSnap struct {
	sum   time.Duration
	total int64
}

// window returns each node's steady cadence since the previous call — the
// observations recorded in between, averaged — and advances snap to now.
// Nodes with no new observation are left out.
func (l *latency) window(snap map[string]histSnap) []control.NodeSample {
	l.mu.Lock()
	defer l.mu.Unlock()
	nodes := make([]string, 0, len(l.steady))
	for n := range l.steady {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	samples := make([]control.NodeSample, 0, len(nodes))
	for _, node := range nodes {
		h := l.steady[node]
		prev := snap[node]
		dTotal := h.Total - prev.total
		dSum := h.Sum - prev.sum
		snap[node] = histSnap{sum: h.Sum, total: h.Total}
		if dTotal > 0 {
			samples = append(samples, control.NodeSample{
				Node: node, Batches: dTotal, PerBatch: dSum / time.Duration(dTotal)})
		}
	}
	return samples
}

// observeBalance is the balancer's epoch tick: it feeds the epoch's window
// and the ring's current weights to the balancer and queues any proposed
// re-weight for the next epoch's first round. It runs on the router
// goroutine after the epoch's last round, so reading the ring is safe.
func (c *Client) observeBalance() {
	if c.bal.balancer == nil {
		return
	}
	if weights := c.bal.balancer.Observe(c.lat.window(c.bal.snap), c.Weights()); weights != nil {
		for node, w := range weights {
			c.SetNodeWeight(node, w)
		}
		c.cfg.Logf("cluster: autotune re-weight: %s", c.bal.balancer)
	}
}

// SetNodeWeight queues a ring weight override for node (w in [0, 1] of full
// weight), applied at the next round start. Safe to call from any
// goroutine — including mid-epoch from an onBatch callback or an operator
// control surface — because the ring itself is only ever touched at round
// starts on the router goroutine; the exactly-once ledger guarantees a
// re-weighted reroute never re-delivers a batch. Returns false for a node
// the client does not know.
func (c *Client) SetNodeWeight(node string, w float64) bool {
	if _, ok := c.clients[node]; !ok {
		return false
	}
	c.bal.mu.Lock()
	if c.bal.pending == nil {
		c.bal.pending = make(map[string]float64)
	}
	c.bal.pending[node] = w
	c.bal.mu.Unlock()
	return true
}

// applyPendingWeights drains the queued weight changes into the ring. Called
// only from the router goroutine at round starts, while no fetch or hedge
// goroutine is live to walk the ring concurrently.
func (c *Client) applyPendingWeights() {
	c.bal.mu.Lock()
	pending := c.bal.pending
	c.bal.pending = nil
	c.bal.mu.Unlock()
	nodes := make([]string, 0, len(pending))
	for n := range pending {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	moves := 0
	for _, n := range nodes {
		if c.ring.SetWeight(n, pending[n]) {
			moves++
			c.cfg.Logf("cluster: ring weight %s -> %.2f", n, pending[n])
		}
	}
	c.bal.mu.Lock()
	c.bal.moves += moves
	c.bal.mu.Unlock()
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

// WeightMoves reports how many applied weight changes actually changed a
// ring weight.
func (c *Client) WeightMoves() int {
	c.bal.mu.Lock()
	defer c.bal.mu.Unlock()
	return c.bal.moves
}
