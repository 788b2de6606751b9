package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// owners returns up to n members in descending score order for key — the
// order successive Picks visit them when each excludes the ones before it.
// n <= 0 returns every member with a positive weight.
func owners(r *Ring, key uint64, n int) []string {
	var out []string
	taken := map[string]bool{}
	for n <= 0 || len(out) < n {
		m, ok := r.Pick(key, func(m string) bool { return !taken[m] })
		if !ok {
			break
		}
		taken[m] = true
		out = append(out, m)
	}
	return out
}

// owner returns the member that owns batch id with every member accepted.
func owner(r *Ring, id int) string {
	m, _ := r.Pick(BatchKey(id), func(string) bool { return true })
	return m
}

// TestRingInsertionOrderInvariant: two rings over the same node set place
// every key identically regardless of Add order — consumers compute the same
// partition without coordination.
func TestRingInsertionOrderInvariant(t *testing.T) {
	a := NewRing()
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		a.Add(n)
	}
	b := NewRing()
	for _, n := range []string{"n3", "n1", "n4", "n2"} {
		b.Add(n)
	}
	for id := 0; id < 500; id++ {
		if ao, bo := owners(a, BatchKey(id), 2), owners(b, BatchKey(id), 2); !reflect.DeepEqual(ao, bo) {
			t.Fatalf("batch %d: owners %v vs %v across insertion orders", id, ao, bo)
		}
	}
}

// TestRingMinimalDisruption: excluding one node (a death: it leaves the
// alive set) moves only the keys that node owned; every other key keeps its
// owner.
func TestRingMinimalDisruption(t *testing.T) {
	r := NewRing()
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	for _, n := range nodes {
		r.Add(n)
	}
	const keys = 1000
	before := make([]string, keys)
	for id := 0; id < keys; id++ {
		before[id] = owner(r, id)
	}
	const victim = "n3"
	survivor := func(n string) bool { return n != victim }
	moved := 0
	for id := 0; id < keys; id++ {
		after, _ := r.Pick(BatchKey(id), survivor)
		if before[id] == victim {
			moved++
			if after == victim {
				t.Fatalf("batch %d still owned by excluded node", id)
			}
		} else if after != before[id] {
			t.Fatalf("batch %d moved %s -> %s though %s was excluded", id, before[id], after, victim)
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no keys; test proves nothing")
	}
}

// TestRingBalance: over a long run of sequential batch IDs every member's
// share is within 5% of its fair share, whatever the member names, and a
// down-weighted member's share lands within 8% of w/Σw — the balancer can
// only equalise finish times if the partition follows its weights.
func TestRingBalance(t *testing.T) {
	const keys = 64000
	keyOf := make([]uint64, keys)
	for id := range keyOf {
		keyOf[id] = BatchKey(id)
	}
	all := func(string) bool { return true }
	shares := func(r *Ring) map[string]float64 {
		counts := map[string]int{}
		for _, k := range keyOf {
			m, _ := r.Pick(k, all)
			counts[m]++
		}
		out := map[string]float64{}
		for _, m := range r.Nodes() {
			out[m] = float64(counts[m]) / keys
		}
		return out
	}
	ringOf := func(members []string) *Ring {
		r := NewRing()
		for _, m := range members {
			r.Add(m)
		}
		return r
	}

	addrs := make([]string, 5)
	for k := range addrs {
		addrs[k] = fmt.Sprintf("10.0.0.%d:9317", k+1)
	}
	for _, members := range [][]string{
		{"n0", "n1", "n2"},
		{"a", "b", "c"},
		{"node0", "node1", "node2"},
		addrs,
	} {
		fair := 1 / float64(len(members))
		for m, share := range shares(ringOf(members)) {
			if share > 1.05*fair || share < fair/1.05 {
				t.Errorf("members %v: %s owns %.4f of %d keys, fair share %.4f", members, m, share, keys, fair)
			}
		}
	}

	for _, w := range []float64{1.0 / 16, 1.0 / 4, 1.0 / 2} {
		r := ringOf([]string{"node0", "node1", "node2"})
		r.SetWeight("node0", w)
		want := w / (w + 2)
		if got := shares(r)["node0"]; math.Abs(got-want) > 0.08*want {
			t.Errorf("node0 at weight %v owns %.4f of the keys, want %.4f ± 8%%", w, got, want)
		}
	}
}

// assignUnion flattens an Assignment back into a multiset of IDs.
func assignUnion(a Assignment) map[int]int {
	seen := map[int]int{}
	for _, ids := range a.ByNode {
		for _, id := range ids {
			seen[id]++
		}
	}
	for _, id := range a.Unassigned {
		seen[id]++
	}
	return seen
}

// TestAssignPartitionsExactlyOnce: every requested ID lands in exactly one
// node's shard (or Unassigned when nothing is alive) — the static half of
// the exactly-once invariant.
func TestAssignPartitionsExactlyOnce(t *testing.T) {
	r := NewRing()
	for _, n := range []string{"n1", "n2", "n3"} {
		r.Add(n)
	}
	ids := make([]int, 40)
	for i := range ids {
		ids[i] = i
	}

	aliveSets := []map[string]bool{
		{"n1": true, "n2": true, "n3": true},
		{"n1": true, "n3": true},
		{"n2": true},
		{},
	}
	for _, alive := range aliveSets {
		asn := r.Assign(ids, alive)
		seen := assignUnion(asn)
		if len(seen) != len(ids) {
			t.Fatalf("alive=%v: %d distinct ids placed, want %d", alive, len(seen), len(ids))
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("alive=%v: id %d placed %d times", alive, id, n)
			}
		}
		for node := range asn.ByNode {
			if !alive[node] {
				t.Fatalf("dead node %s received work", node)
			}
		}
		if len(alive) == 0 && len(asn.Unassigned) != len(ids) {
			t.Fatalf("empty alive set: %d unassigned, want all %d", len(asn.Unassigned), len(ids))
		}
		if len(alive) > 0 && len(asn.Unassigned) != 0 {
			t.Fatalf("alive=%v: %d ids unassigned with survivors present", alive, len(asn.Unassigned))
		}
	}
}

// TestRingSequentialKeysDisperse is the regression test for the mix64
// finalizer: epoch plans are *sequential* batch IDs, and raw FNV-1a leaves
// "batch/0".."batch/N" hashed into a band only ~2^44 wide, so their keys
// differ in few bits and could all favour one member. A real plan-sized run
// of sequential keys must touch every member of a three-node ring.
func TestRingSequentialKeysDisperse(t *testing.T) {
	r := NewRing()
	members := []string{"node0", "node1", "node2"}
	for _, n := range members {
		r.Add(n)
	}
	for _, plan := range []int{16, 20, 64} {
		counts := map[string]int{}
		for id := 0; id < plan; id++ {
			counts[owner(r, id)]++
		}
		for _, n := range members {
			if counts[n] == 0 {
				t.Errorf("plan of %d sequential batches left %s with no work: %v", plan, n, counts)
			}
			if counts[n] > 2*plan/3 {
				t.Errorf("plan of %d sequential batches skewed onto %s: %v", plan, n, counts)
			}
		}
	}
}

// TestRingSetWeightMinimalDisruption: shrinking one node's weight moves only
// keys that node owned (its scores drop, no other's rise); every key owned
// by another node
// keeps its owner. This is the property that makes a live re-weight cheap —
// the rest of the epoch's cache affinity survives.
func TestRingSetWeightMinimalDisruption(t *testing.T) {
	r := NewRing()
	nodes := []string{"n1", "n2", "n3"}
	for _, n := range nodes {
		r.Add(n)
	}
	const keys = 1000
	before := make([]string, keys)
	for id := 0; id < keys; id++ {
		before[id] = owner(r, id)
	}
	const victim = "n2"
	if !r.SetWeight(victim, 1.0/3) {
		t.Fatal("SetWeight reported no change for a 1/3 weight")
	}
	moved, kept := 0, 0
	for id := 0; id < keys; id++ {
		after := owner(r, id)
		if before[id] != victim {
			if after != before[id] {
				t.Fatalf("batch %d moved %s -> %s though only %s was re-weighted",
					id, before[id], after, victim)
			}
			continue
		}
		if after == victim {
			kept++
		} else {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("down-weighting moved no keys off the victim")
	}
	if kept == 0 {
		t.Fatal("a 1/3-weight member should keep a share of its keys")
	}
}

// TestRingSetWeightDeterministic: two rings that arrive at the same weight
// state through different histories partition identically — the property
// that lets any consumer replay a weight log and agree on ownership.
func TestRingSetWeightDeterministic(t *testing.T) {
	a := NewRing()
	b := NewRing()
	for _, n := range []string{"n1", "n2", "n3"} {
		a.Add(n)
		b.Add(n)
	}
	a.SetWeight("n2", 0.8)
	a.SetWeight("n2", 0.25) // via an intermediate step
	b.SetWeight("n2", 0.25) // directly
	for id := 0; id < 500; id++ {
		ao, bo := owners(a, BatchKey(id), 2), owners(b, BatchKey(id), 2)
		if !reflect.DeepEqual(ao, bo) {
			t.Fatalf("batch %d: owners %v vs %v across weight histories", id, ao, bo)
		}
	}
}

// TestRingWeightZeroAndRestore: weight 0 removes a member from every Pick
// while keeping it in the member set; restoring full weight reproduces the
// original partition exactly (a score depends only on the current weight).
func TestRingWeightZeroAndRestore(t *testing.T) {
	r := NewRing()
	for _, n := range []string{"n1", "n2", "n3"} {
		r.Add(n)
	}
	const keys = 500
	before := make([][]string, keys)
	for id := 0; id < keys; id++ {
		before[id] = owners(r, BatchKey(id), 0)
	}
	r.SetWeight("n2", math.NaN())
	if r.Weight("n2") != 0 {
		t.Fatalf("Weight(n2) = %v after SetWeight NaN, want 0", r.Weight("n2"))
	}
	r.SetWeight("n2", 0)
	if r.Weight("n2") != 0 {
		t.Fatalf("Weight(n2) = %v after SetWeight 0", r.Weight("n2"))
	}
	if got := r.Nodes(); len(got) != 3 {
		t.Fatalf("weight 0 must not remove membership, Nodes() = %v", got)
	}
	for id := 0; id < keys; id++ {
		for _, m := range owners(r, BatchKey(id), 0) {
			if m == "n2" {
				t.Fatalf("batch %d walk still visits a weight-0 member", id)
			}
		}
	}
	r.SetWeight("n2", 1)
	for id := 0; id < keys; id++ {
		if got := owners(r, BatchKey(id), 0); !reflect.DeepEqual(got, before[id]) {
			t.Fatalf("batch %d: owners %v after restore, want %v", id, got, before[id])
		}
	}
}
