package serve

import (
	"math/rand"
	"reflect"
	"testing"

	"lotus/internal/pipeline"
	"lotus/internal/workloads"
)

// TestShardDisjointExhaustive is the sharding property test: for random
// plan sizes, batch sizes, worlds, and seeds, the per-rank shards are
// pairwise disjoint, their union is exactly the full plan, and each shard
// preserves plan order.
func TestShardDisjointExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(500)
		batch := 1 + r.Intn(32)
		world := 1 + r.Intn(8)
		seed := r.Int63n(1 << 40)
		epoch := r.Intn(5)
		dropLast := r.Intn(2) == 0

		plan := BuildEpochPlan(n, batch, true, dropLast, seed, epoch)
		seen := make(map[int]int) // global id -> rank that claimed it
		total := 0
		for rank := 0; rank < world; rank++ {
			shard := Shard(plan, rank, world)
			if got, want := len(shard), ShardSize(len(plan), rank, world); got != want {
				t.Fatalf("iter %d: rank %d/%d shard len %d, ShardSize says %d", iter, rank, world, got, want)
			}
			lastID := -1
			for _, pb := range shard {
				if prev, dup := seen[pb.GlobalID]; dup {
					t.Fatalf("iter %d: batch %d claimed by ranks %d and %d", iter, pb.GlobalID, prev, rank)
				}
				seen[pb.GlobalID] = rank
				if pb.GlobalID <= lastID {
					t.Fatalf("iter %d: rank %d shard out of plan order: %d after %d", iter, rank, pb.GlobalID, lastID)
				}
				lastID = pb.GlobalID
				if !reflect.DeepEqual(pb.Indices, plan[pb.GlobalID].Indices) {
					t.Fatalf("iter %d: batch %d indices diverge from plan", iter, pb.GlobalID)
				}
			}
			total += len(shard)
		}
		if total != len(plan) {
			t.Fatalf("iter %d: shards cover %d of %d plan batches", iter, total, len(plan))
		}
	}
}

// TestShardedLoadersCoverEpoch runs one virtual-clock DataLoader per rank,
// each over its shard of the same epoch plan, and checks that the union of
// the batches they deliver is exactly the batch sequence a single local
// loader produces for the full plan — the server-side invariant behind the
// multi-client loopback test, without any networking.
func TestShardedLoadersCoverEpoch(t *testing.T) {
	spec := workloads.ICSpec(192, 11)
	spec.BatchSize = 16
	spec.NumWorkers = 2
	const world, epoch = 3, 1

	plan := BuildEpochPlan(spec.NumSamples, spec.BatchSize, spec.Shuffle, false, spec.Seed, epoch)

	runShard := func(shard []PlanBatch) [][]int {
		ids := make([]int, len(shard))
		for i, pb := range shard {
			ids[i] = pb.GlobalID
		}
		batches, err := LocalBatches(spec, pipeline.Simulated, 0, epoch, ids)
		if err != nil {
			t.Fatalf("shard loader: %v", err)
		}
		got := make([][]int, len(batches))
		for i, b := range batches {
			got[i] = b.Indices
		}
		return got
	}

	assembled := make([][]int, len(plan))
	for rank := 0; rank < world; rank++ {
		shard := Shard(plan, rank, world)
		got := runShard(shard)
		if len(got) != len(shard) {
			t.Fatalf("rank %d delivered %d batches, shard has %d", rank, len(got), len(shard))
		}
		for i, indices := range got {
			assembled[shard[i].GlobalID] = indices
		}
	}
	full := runShard(plan)
	if len(full) != len(plan) {
		t.Fatalf("full run delivered %d batches, plan has %d", len(full), len(plan))
	}
	if !reflect.DeepEqual(assembled, full) {
		t.Fatal("union of sharded loader outputs diverges from the single local loader")
	}
}
