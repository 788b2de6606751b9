package serve

import (
	"fmt"
	"hash/fnv"

	"lotus/internal/pipeline"
	"lotus/internal/workloads"
)

// PlanBatch is one batch of an epoch plan: its position in the full plan
// (the global batch id clients see) plus the dataset indices collated into
// it.
type PlanBatch struct {
	GlobalID int
	Indices  []int
}

// BuildEpochPlan returns the full batch plan for one epoch over a dataset of
// n samples, using the DataLoader's canonical shuffle/chunk derivation and
// its per-epoch seed (pipeline.EpochSeed), so a served epoch's plan — and
// therefore every batch streamed from it — is identical to what a local
// DataLoader run would produce.
func BuildEpochPlan(n, batchSize int, shuffle, dropLast bool, seed int64, epoch int) []PlanBatch {
	raw := pipeline.BuildBatchPlan(n, batchSize, shuffle, dropLast, pipeline.EpochSeed(seed, epoch))
	plan := make([]PlanBatch, len(raw))
	for i, idxs := range raw {
		plan[i] = PlanBatch{GlobalID: i, Indices: idxs}
	}
	return plan
}

// Shard returns one session's slice of the plan under static round-robin
// sharding: rank of world takes plan batches rank, rank+world, rank+2*world,
// and so on, preserving plan order. Shards across all ranks are disjoint by
// construction and exhaustive (their union is the full plan), which is the
// property the multi-client sharding test asserts.
func Shard(plan []PlanBatch, rank, world int) []PlanBatch {
	if world <= 1 {
		return plan
	}
	out := make([]PlanBatch, 0, (len(plan)+world-1-rank)/world)
	for i := rank; i < len(plan); i += world {
		out = append(out, plan[i])
	}
	return out
}

// SpecFingerprint hashes the frame-determining parameters of a served
// configuration: two servers with equal fingerprints produce byte-identical
// frames for every (epoch, global batch ID). This is what keys the
// materialized-batch cache — a server reconfigured to a different dataset
// size, seed, batch geometry, workload, or preprocessing mode lands on a
// different fingerprint and can never alias cached bytes. Parameters that
// change only scheduling (worker count, prefetch, dispatch policy) are
// deliberately excluded: the deterministic plan makes batch content
// independent of them, which the byte-identity tests assert.
//
// The fingerprint also covers frameLayoutVersion, how a batch is laid out as
// frame bytes: the disk tier stores encoded frames under this key and serves
// them verbatim, so a directory written under an older layout must read as
// empty, not as frames this build's peers would misparse.
func SpecFingerprint(spec workloads.Spec, mode pipeline.Mode, materializeDim int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%t|%d|%g|%t|%d|%d|layout%d",
		spec.Kind, spec.NumSamples, spec.BatchSize, spec.Seed, spec.Shuffle,
		spec.Arch, spec.WorkScale, spec.OfflineDecode, mode, materializeDim, frameLayoutVersion)
	return h.Sum64()
}

// PrefixFingerprint hashes the byte-affecting parameters of the spec's
// deterministic prefix, keying the split-point sample cache. ok is false
// when the pipeline has no usable prefix (its first transform is already
// random).
//
// The fingerprint covers the dataset identity (Kind, NumSamples, Seed — the
// record geometry and per-sample content seeds derive from these), the
// execution parameters that change prefix bytes (Arch, WorkScale,
// OfflineDecode, mode, materializeDim), the split point, and the prefix op
// names. Transform parameters (resize targets, normalization constants) are
// a function of Spec.Kind by construction — workloads.Spec.Compose builds
// each kind's chain from constants — so hashing the kind plus op names pins
// them. BatchSize, Shuffle, and the epoch are deliberately excluded: prefix
// bytes are per-sample and epoch-independent, which is what lets epochs
// 2..N and concurrent sessions share entries.
func PrefixFingerprint(spec workloads.Spec, mode pipeline.Mode, materializeDim int) (uint64, bool) {
	c := spec.Compose(nil)
	split := c.SplitPoint()
	if split == 0 {
		return 0, false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "prefix|%s|%d|%d|%d|%g|%t|%d|%d|%d",
		spec.Kind, spec.NumSamples, spec.Seed, spec.Arch, spec.WorkScale,
		spec.OfflineDecode, mode, materializeDim, split)
	for _, name := range c.Names()[:split] {
		fmt.Fprintf(h, "|%s", name)
	}
	return h.Sum64(), true
}

// ShardSize reports len(Shard(plan, rank, world)) without building the
// shard.
func ShardSize(planLen, rank, world int) int {
	if world <= 1 {
		return planLen
	}
	if rank >= planLen {
		return 0
	}
	return (planLen - rank + world - 1) / world
}
