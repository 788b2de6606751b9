package cluster

import "time"

// Re-weighting is a policy over the routing loop's epoch boundaries: at each
// epoch end, once every fetch and hedge goroutine of the epoch has joined,
// the router folds the epoch's per-node steady cadence into an EWMA model of
// each node's per-batch service time and writes the weights that model calls
// for straight onto the ring. It is the ring's only writer, so the next
// epoch's first Assign partitions under the new weights. Each node's weight
// is the ratio of the fastest node's per-batch time to its own, so shard
// sizes converge to be proportional to service rate and every node finishes
// its shard at about the same time — the minimum-makespan partition for
// heterogeneous nodes. Deterministic: the same observation sequence always
// produces the same weights.

// The balancer's smoothing, dead band and floor. They are the values the
// autotune gates (BenchmarkAutotuneImbalanced, the
// cluster-autotune-slow-node chaos row) run, so they are constants, not
// configuration.
const (
	// balanceAlpha is the EWMA smoothing factor on per-batch service time:
	// high enough to track a node that degrades mid-run, low enough that one
	// noisy window cannot swing the ring.
	balanceAlpha = 0.5
	// balanceDeadBand suppresses re-weights smaller than this relative
	// change — the hysteresis that stops the ring thrashing when nodes are
	// roughly balanced.
	balanceDeadBand = 0.15
	// balanceMinWeight floors every alive node's weight: a degraded node
	// keeps a sliver of the keyspace so its recovery is observable (weight 0
	// would starve it of work and freeze its service estimate).
	balanceMinWeight = 1.0 / 16
	// balanceMinSamples is the minimum steady-frame observations in a window
	// before a node's estimate updates.
	balanceMinSamples = 2
)

// balance is the client's re-weighting state, touched only on the router
// goroutine between epochs.
type balance struct {
	// svc is the EWMA per-batch service time per node, in seconds; nil
	// unless Config.AutoTune is set. snap remembers each steady histogram's
	// (sum, total) at the last epoch boundary, so a window is a delta, not
	// the lifetime aggregate.
	svc   map[string]float64
	snap  map[string]histSnap
	moves int
}

// histSnap is one histogram's cumulative (sum, total) at a window boundary,
// or, as window returns it, the observations between two boundaries.
type histSnap struct {
	sum   time.Duration
	total int64
}

// window returns each node's steady-cadence observations since the previous
// call and advances snap to now. Nodes with no new observation are left out.
func (l *latency) window(snap map[string]histSnap) map[string]histSnap {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]histSnap)
	for node, h := range l.steady {
		prev := snap[node]
		snap[node] = histSnap{sum: h.Sum, total: h.Total}
		if d := h.Total - prev.total; d > 0 {
			out[node] = histSnap{sum: h.Sum - prev.sum, total: d}
		}
	}
	return out
}

// observeBalance is the balancer's epoch tick. It runs on the router
// goroutine after the epoch's last round has joined, so it reads and writes
// the ring unlocked: it folds the epoch's window into the service-time
// model and, when some node's weight is off by more than the dead band,
// sets every modeled node's weight to what the model calls for.
func (c *Client) observeBalance() {
	if c.bal.svc == nil {
		return
	}
	for node, d := range c.lat.window(c.bal.snap) {
		perBatch := d.sum / time.Duration(d.total)
		if d.total < balanceMinSamples || perBatch <= 0 {
			continue
		}
		obs := perBatch.Seconds()
		if old, ok := c.bal.svc[node]; ok {
			obs = (1-balanceAlpha)*old + balanceAlpha*obs
		}
		c.bal.svc[node] = obs
	}
	if len(c.bal.svc) < 2 {
		return
	}
	fastest := 0.0
	for _, s := range c.bal.svc {
		if fastest == 0 || s < fastest {
			fastest = s
		}
	}
	target := make(map[string]float64, len(c.bal.svc))
	changed := false
	for n, s := range c.bal.svc {
		w := min(max(fastest/s, balanceMinWeight), 1)
		target[n] = w
		if cur := c.ring.Weight(n); w-cur > balanceDeadBand*cur || cur-w > balanceDeadBand*cur {
			changed = true
		}
	}
	if !changed {
		return
	}
	for _, n := range c.ring.Nodes() {
		if w, ok := target[n]; ok && c.ring.SetWeight(n, w) {
			c.bal.moves++
			c.cfg.Logf("cluster: ring weight %s -> %.2f (%.1fms/batch)", n, w, 1e3*c.bal.svc[n])
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

// WeightMoves reports how many balancer re-weights changed a ring weight.
// Call it from the router's goroutine (between runs).
func (c *Client) WeightMoves() int { return c.bal.moves }
