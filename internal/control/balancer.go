package control

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// NodeSample is one node's observed service metrics over a window (the
// cluster router assembles these from its per-node steady-state latency
// histograms, the hedge signal reused as the degradation signal).
type NodeSample struct {
	Node string
	// Batches is the number of steady-frame observations in the window.
	Batches int64
	// PerBatch is the mean steady inter-arrival time in the window: the
	// node's effective per-batch service time while streaming. Unlike
	// batches/sec over the epoch wall time, it is load-independent — a node
	// idle half the epoch because its shard was small still reports its true
	// per-batch cost.
	PerBatch time.Duration
}

// The balancer's smoothing, dead band and floor. They are the values
// the autotune gates (BenchmarkAutotuneImbalanced, the
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

// Balancer converts per-node service-time observations into ring weights:
// each node's weight is the ratio of the fastest node's per-batch time to its
// own, so shard sizes converge to be proportional to service rate and every
// node finishes its shard at the same time — the minimum-makespan partition
// for heterogeneous nodes. Deterministic: the
// same observation sequence always produces the same weights.
type Balancer struct {
	mu sync.Mutex
	// svc is the EWMA per-batch service time per node, in seconds.
	svc map[string]float64
}

// NewBalancer returns a balancer with no observations.
func NewBalancer() *Balancer {
	return &Balancer{svc: make(map[string]float64)}
}

// Observe feeds one window of per-node samples. current is the weight each
// node has on the ring now (a node it omits counts as full weight): the dead
// band is measured against it, so a weight set by hand since the last
// proposal is re-weighted like any other. Observe returns the new weight map
// when a re-weight is warranted, nil otherwise. The caller applies the
// returned weights to its ring.
func (b *Balancer) Observe(samples []NodeSample, current map[string]float64) map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range samples {
		if s.Batches < balanceMinSamples || s.PerBatch <= 0 {
			continue
		}
		obs := s.PerBatch.Seconds()
		if old, ok := b.svc[s.Node]; ok {
			b.svc[s.Node] = (1-balanceAlpha)*old + balanceAlpha*obs
		} else {
			b.svc[s.Node] = obs
		}
	}
	if len(b.svc) < 2 {
		return nil
	}

	nodes := make([]string, 0, len(b.svc))
	fastest := 0.0
	for n, s := range b.svc {
		nodes = append(nodes, n)
		if fastest == 0 || s < fastest {
			fastest = s
		}
	}
	sort.Strings(nodes)

	proposed := make(map[string]float64, len(nodes))
	changed := false
	for _, n := range nodes {
		w := min(max(fastest/b.svc[n], balanceMinWeight), 1)
		proposed[n] = w
		cur, ok := current[n]
		if !ok {
			cur = 1
		}
		if diff := w - cur; diff > balanceDeadBand*cur || -diff > balanceDeadBand*cur {
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return proposed
}

// String renders each node's service-time estimate for logs.
func (b *Balancer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	nodes := make([]string, 0, len(b.svc))
	for n := range b.svc {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	out := ""
	for _, n := range nodes {
		out += fmt.Sprintf("%s: %.1fms/batch; ", n, 1e3*b.svc[n])
	}
	return out
}
