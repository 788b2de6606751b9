// Package cluster turns N independent lotus-serve nodes into one
// fault-tolerant preprocessing service. It is control-plane-light: there is
// no coordinator process and the nodes never talk to each other about work.
// The epoch batch plan — deterministic from (spec, seed, epoch) and therefore
// identical on every node — defines the work; a consistent-hash ring keyed on
// global batch ID partitions it across whichever nodes are alive; and the
// router in each consumer re-issues exactly the unserved batch IDs of a dead
// node to survivors mid-epoch. Because every node streams byte-identical
// frames for the same batch ID (the PR-2 determinism contract), failover
// preserves exactly-once delivery and byte-identity with single-node ground
// truth.
//
// The package has two parts:
//
//   - Ring: the consistent-hash partitioner (this file);
//   - Client: the epoch router wrapping one serve.Client per node
//     (client.go). Its own fetches are the liveness signal: a failed fetch
//     marks a node down, and a dial at the next epoch's start brings it
//     back.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per physical node. 64 points per
// node keeps the max/mean shard imbalance under ~20% for small clusters
// while the ring stays tiny (a few KB).
const DefaultVNodes = 64

// ringPoint is one virtual node's position on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over node IDs. It is deterministic: two
// rings built from the same node set place every key identically, no matter
// the insertion order — so every consumer and every test computes the same
// partition without coordination. Not safe for concurrent mutation; the
// router guards it with its own lock.
type Ring struct {
	vnodes int
	points []ringPoint
	nodes  map[string]bool
	// vcount is each member's current virtual-node count. Full weight is
	// r.vnodes points; a degraded member keeps a prefix of its point set
	// (node#0..node#k-1), so re-weighting moves only the keys on the dropped
	// arcs — the same minimal-disruption property Remove has.
	vcount map[string]int
}

// NewRing returns an empty ring with the given virtual-node count per node
// (<= 0 selects DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool), vcount: make(map[string]int)}
}

// fnv1a is FNV-1a 64 over a byte string — the same mix every deterministic
// decision in this repository uses.
func fnv1a(data string) uint64 {
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for i := 0; i < len(data); i++ {
		h ^= uint64(data[i])
		h *= prime64
	}
	return h
}

// mix64 is the 64-bit murmur3 finalizer. FNV-1a alone is too weak for ring
// placement: sequential keys like "batch/0".."batch/19" differ only in the
// last bytes, and one FNV multiply leaves their hashes within ~2^44 of each
// other — a band so narrow the whole epoch plan lands inside a single vnode
// arc (arcs average 2^64/points). The finalizer's shift-xor-multiply cascade
// avalanches those low-byte differences across all 64 bits.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// BatchKey maps a global batch ID onto the ring's keyspace. Keying on the
// batch ID (not the epoch) means a batch keeps its owner across epochs,
// which keeps any per-shard server-side cache warm epoch over epoch.
func BatchKey(globalID int) uint64 {
	return mix64(fnv1a(fmt.Sprintf("batch/%d", globalID)))
}

// Add inserts a node's virtual points at full weight. Adding a present node
// is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	r.vcount[node] = r.vnodes
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: mix64(fnv1a(fmt.Sprintf("%s#%d", node, v))), node: node})
	}
	r.sortPoints()
}

func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a node's virtual points. Removing an absent node is a
// no-op. Only keys owned by the removed node move — the minimal-disruption
// property that keeps a node death from reshuffling the whole epoch.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	delete(r.vcount, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// SetWeight scales a member's share of the keyspace to w in [0, 1] of full
// weight. The weight is quantized to a virtual-node count so every consumer
// that applies the same weight computes the same partition (no float drift).
// A nonzero weight always keeps at least one point, so a degraded-but-alive
// node still owns a sliver and keeps its caches warm; weight 0 removes the
// member from key walks entirely while leaving it in the member set (it can
// still serve spilled or hedged work addressed to it explicitly). Returns
// true when the point set changed.
func (r *Ring) SetWeight(node string, w float64) bool {
	if !r.nodes[node] {
		return false
	}
	count := quantizeWeight(w, r.vnodes)
	if count == r.vcount[node] {
		return false
	}
	r.vcount[node] = count
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	for v := 0; v < count; v++ {
		r.points = append(r.points, ringPoint{hash: mix64(fnv1a(fmt.Sprintf("%s#%d", node, v))), node: node})
	}
	r.sortPoints()
	return true
}

// Weight reports a member's current weight in [0, 1] (quantized). Absent
// members report 0.
func (r *Ring) Weight(node string) float64 {
	if !r.nodes[node] {
		return 0
	}
	return float64(r.vcount[node]) / float64(r.vnodes)
}

// quantizeWeight maps a weight in [0, 1] to a vnode count in [0, vnodes],
// rounding to nearest but never rounding a positive weight down to zero.
func quantizeWeight(w float64, vnodes int) int {
	if w <= 0 {
		return 0
	}
	if w >= 1 {
		return vnodes
	}
	count := int(w*float64(vnodes) + 0.5)
	if count < 1 {
		count = 1
	}
	if count > vnodes {
		count = vnodes
	}
	return count
}

// Nodes returns the member IDs in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owners returns up to n distinct nodes clockwise from key — the replica set
// for the key, primary first. n <= 0 returns every member in ring order.
func (r *Ring) Owners(key uint64, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.nodes) {
		n = len(r.nodes)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Replicas returns a batch's preferred replica set: the first r distinct
// nodes clockwise from its key. With r > 1 a hot shard survives its primary:
// the batch's failover target is decided by the ring, not by which node
// happens to answer first.
func (r *Ring) Replicas(globalID, replication int) []string {
	if replication < 1 {
		replication = 1
	}
	return r.Owners(BatchKey(globalID), replication)
}

// Assignment is one routing round's partition of batch IDs across nodes.
type Assignment struct {
	// ByNode maps node ID to the batch IDs it serves this round, in
	// ascending order (plan order).
	ByNode map[string][]int
	// Unassigned lists IDs no alive node can serve (empty alive set).
	Unassigned []int
	// Spilled counts batches assigned outside their preferred replica set —
	// every replica dead, so the walk continued clockwise. A nonzero spill
	// with replication R means more than R ring-adjacent nodes are down;
	// those batches lose cache affinity but not availability.
	Spilled int
}

// Assign partitions the given global batch IDs across the alive subset of
// the ring's members: each batch goes to the first alive node of its replica
// walk, and when every preferred replica is dead the walk continues
// clockwise so the batch is still served as long as any member is alive.
func (r *Ring) Assign(ids []int, alive map[string]bool, replication int) Assignment {
	if replication < 1 {
		replication = 1
	}
	out := Assignment{ByNode: make(map[string][]int)}
	for _, id := range ids {
		owners := r.Owners(BatchKey(id), 0)
		placed := false
		for i, node := range owners {
			if alive[node] {
				out.ByNode[node] = append(out.ByNode[node], id)
				if i >= replication {
					out.Spilled++
				}
				placed = true
				break
			}
		}
		if !placed {
			out.Unassigned = append(out.Unassigned, id)
		}
	}
	for _, ids := range out.ByNode {
		sort.Ints(ids)
	}
	return out
}
