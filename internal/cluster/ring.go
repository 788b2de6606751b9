// Package cluster turns N independent lotus-serve nodes into one
// fault-tolerant preprocessing service. It is control-plane-light: there is
// no coordinator process and the nodes never talk to each other about work.
// The epoch batch plan — deterministic from (spec, seed, epoch) and therefore
// identical on every node — defines the work; weighted rendezvous hashing
// keyed on global batch ID partitions it across whichever nodes are alive;
// and the router in each consumer re-issues exactly the unserved batch IDs
// of a dead node to survivors mid-epoch. Because every node streams
// byte-identical frames for the same batch ID (the serving layer's
// determinism contract), failover preserves exactly-once delivery and
// byte-identity with single-node ground truth.
//
// The package has two parts:
//
//   - Ring: the weighted rendezvous partitioner (this file);
//   - Client: the epoch router wrapping one serve.Client per node
//     (client.go). Its own fetches are the liveness signal: a failed fetch
//     marks a node down, and a dial at the next epoch's start brings it
//     back.
package cluster

import (
	"fmt"
	"math"
	"sort"
)

// member is one node of the ring: its identity hash, fixed at Add, and its
// current weight in [0, 1].
type member struct {
	id     string
	hash   uint64
	weight float64
}

// Ring is a weighted rendezvous (highest-random-weight) partitioner over
// node IDs. Every member scores every key, and a key goes to the accepted
// member with the highest score w / −ln(u), u uniform in (0, 1) from the
// member's hash and the key. A member's expected share of the keys is
// therefore exactly its weight over the summed weights, and lowering one
// member's weight lowers only its own scores, so only keys it owned move.
//
// It is deterministic: the same members, weights and key pick the same
// member no matter the insertion order or weight history, and a score tie
// goes to the smaller member ID — so every consumer and every test computes
// the same partition without coordination. Across architectures only a tie
// within one ulp of math.Log could differ (amd64 has an assembly Log). Not
// safe for concurrent mutation; the router's balancer, its one writer, sets
// weights only between epochs.
type Ring struct {
	members []member // sorted by id
}

// NewRing returns an empty ring.
func NewRing() *Ring { return &Ring{} }

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

// mix64 is the 64-bit murmur3 finalizer. FNV-1a alone is too weak for
// placement: sequential keys like "batch/0".."batch/19" differ only in the
// last bytes, and one FNV multiply leaves their hashes within ~2^44 of each
// other. The finalizer's shift-xor-multiply cascade avalanches those
// low-byte differences across all 64 bits.
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

// find returns the index of node in the sorted member list, or where it
// would be inserted, and whether it is present.
func (r *Ring) find(node string) (int, bool) {
	i := sort.Search(len(r.members), func(i int) bool { return r.members[i].id >= node })
	return i, i < len(r.members) && r.members[i].id == node
}

// Add makes node a member at full weight. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	i, ok := r.find(node)
	if ok {
		return
	}
	r.members = append(r.members, member{})
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = member{id: node, hash: mix64(fnv1a(node)), weight: 1}
}

// SetWeight sets a member's weight, clamped to [0, 1] of full weight (NaN
// counts as 0). A nonzero weight keeps a share of the keys, so a
// degraded-but-alive node keeps its caches warm; weight 0 takes the member
// out of every Pick while leaving it in the member set. Returns true when
// the weight changed.
func (r *Ring) SetWeight(node string, w float64) bool {
	i, ok := r.find(node)
	if !(w > 0) {
		w = 0
	}
	w = min(w, 1)
	if !ok || r.members[i].weight == w {
		return false
	}
	r.members[i].weight = w
	return true
}

// Weight reports a member's current weight in [0, 1]. Absent members
// report 0.
func (r *Ring) Weight(node string) float64 {
	if i, ok := r.find(node); ok {
		return r.members[i].weight
	}
	return 0
}

// Nodes returns the member IDs in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.members))
	for i, m := range r.members {
		out[i] = m.id
	}
	return out
}

// Pick returns the member with the highest score for key among those with a
// positive weight that accept admits, or false when there is none.
func (r *Ring) Pick(key uint64, accept func(node string) bool) (string, bool) {
	best, bestScore := -1, 0.0
	for i, m := range r.members {
		if m.weight <= 0 || !accept(m.id) {
			continue
		}
		// u is the top 53 bits of the pair's hash, centred in its bucket so
		// it lies strictly inside (0, 1) and −ln(u) is positive and finite.
		u := (float64(mix64(m.hash^key)>>11) + 0.5) / (1 << 53)
		// Members are in id order and only a strictly higher score wins, so
		// a tie goes to the smaller id.
		if score := m.weight / -math.Log(u); best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return "", false
	}
	return r.members[best].id, true
}

// Assignment is one routing round's partition of batch IDs across nodes.
type Assignment struct {
	// ByNode maps node ID to the batch IDs it serves this round, in
	// ascending order (plan order).
	ByNode map[string][]int
	// Unassigned lists IDs no alive node can serve (empty alive set).
	Unassigned []int
}

// Assign partitions the given global batch IDs across the alive subset of
// the ring's members: each batch goes to its Pick among the alive members,
// so a dead node's batches spread over the survivors in proportion to their
// weights while every other batch keeps its owner.
func (r *Ring) Assign(ids []int, alive map[string]bool) Assignment {
	out := Assignment{ByNode: make(map[string][]int)}
	isAlive := func(node string) bool { return alive[node] }
	for _, id := range ids {
		if node, ok := r.Pick(BatchKey(id), isAlive); ok {
			out.ByNode[node] = append(out.ByNode[node], id)
		} else {
			out.Unassigned = append(out.Unassigned, id)
		}
	}
	for _, ids := range out.ByNode {
		sort.Ints(ids)
	}
	return out
}
