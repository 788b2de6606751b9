package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"unsafe"

	"lotus/internal/clock"
	"lotus/internal/pipeline"
	"lotus/internal/rng"
	"lotus/internal/serve"
	"lotus/internal/tensor"
	"lotus/internal/workloads"
)

// castagnoli is CRC32C: hardware-accelerated on amd64/arm64, so checking a
// 19 MB batch inside onBatch costs a few milliseconds, not the ~28 ms the
// wire's byte-at-a-time FNV-1a does.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sums identifies one batch's content: tensor bytes, indices and labels.
type sums struct{ tensor, indices, labels uint32 }

func (s sums) diff(o sums) string {
	switch {
	case s.tensor != o.tensor:
		return "tensor"
	case s.indices != o.indices:
		return "indices"
	case s.labels != o.labels:
		return "labels"
	}
	return ""
}

func tensorBytes(t *tensor.Tensor) []byte {
	if len(t.F32) > 0 {
		return unsafe.Slice((*byte)(unsafe.Pointer(&t.F32[0])), 4*len(t.F32))
	}
	return t.U8
}

func crcInts(xs []int) uint32 {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
	}
	return crc32.Checksum(buf, castagnoli)
}

func sumsOf(t *tensor.Tensor, indices, labels []int) sums {
	return sums{crc32.Checksum(tensorBytes(t), castagnoli), crcInts(indices), crcInts(labels)}
}

type batchKey struct{ epoch, id int }

type delivery struct {
	seq, rank int
	s         sums
}

// mismatch names one delivery that differs from the local run.
type mismatch struct {
	seq, rank, epoch, id int
	what                 string
}

// verifier records a checksum triple for every batch the clients receive and
// later compares chosen epochs with a local single-process DataLoader run.
// The client's own FNV stream check covers every epoch it is not asked about.
type verifier struct {
	spec     workloads.Spec
	flipByte bool

	mu       sync.Mutex
	seen     map[batchKey][]delivery
	compared int
}

func newVerifier(spec workloads.Spec, flipByte bool) *verifier {
	return &verifier{spec: spec, flipByte: flipByte, seen: make(map[batchKey][]delivery)}
}

// observe is called from a client's onBatch.
func (v *verifier) observe(seq, rank int, b *serve.Batch) error {
	t := b.Tensor()
	raw := tensorBytes(t)
	if len(raw) == 0 {
		return fmt.Errorf("batch %d carries no payload", b.GlobalID)
	}
	if v.flipByte {
		raw[len(raw)/2] ^= 0x01
	}
	s := sumsOf(t, b.Indices, b.Labels)
	v.mu.Lock()
	k := batchKey{b.Epoch, b.GlobalID}
	v.seen[k] = append(v.seen[k], delivery{seq, rank, s})
	v.mu.Unlock()
	return nil
}

// refBatches picks the global batch ids of one epoch the local run
// recomputes: a quarter of the plan, spread evenly over the ranks, chosen by
// the seed. A full epoch of ground truth costs as much as serving it on one
// worker; a quarter keeps verification a small share of a run while every
// rank, every verified epoch, and (over seeds) every batch position is hit.
func refBatches(plan []serve.PlanBatch, pick *rng.Stream) []serve.PlanBatch {
	perRank := len(plan) / 4 / world
	if perRank < 1 {
		perRank = 1
	}
	var out []serve.PlanBatch
	for rank := 0; rank < world; rank++ {
		shard := serve.Shard(plan, rank, world)
		for _, i := range pick.Perm(len(shard))[:min(perRank, len(shard))] {
			out = append(out, shard[i])
		}
	}
	return out
}

// check recomputes the chosen batches of each epoch locally and returns every
// delivery of them that differs. An error means the reference itself could
// not be produced, so nothing served can be vouched for.
func (v *verifier) check(epochs []int, pick *rng.Stream) ([]mismatch, error) {
	spec := v.spec
	var bad []mismatch
	for _, epoch := range epochs {
		plan := serve.BuildEpochPlan(spec.NumSamples, spec.BatchSize, spec.Shuffle, false, spec.Seed, epoch)
		chosen := refBatches(plan, pick)
		want, err := localSums(spec, epoch, chosen)
		if err != nil {
			return nil, fmt.Errorf("ground truth for epoch %d: %w", epoch, err)
		}
		v.mu.Lock()
		for i, pb := range chosen {
			ds := v.seen[batchKey{epoch, pb.GlobalID}]
			if len(ds) == 0 {
				v.mu.Unlock()
				return nil, fmt.Errorf("batch %d of epoch %d was never delivered", pb.GlobalID, epoch)
			}
			for _, d := range ds {
				v.compared++
				if what := d.s.diff(want[i]); what != "" {
					bad = append(bad, mismatch{d.seq, d.rank, epoch, pb.GlobalID, what})
				}
			}
		}
		v.mu.Unlock()
	}
	return bad, nil
}

// localSums is the ground truth: the chosen plan batches run through a local
// one-worker pipeline.DataLoader with the served spec's seed, epoch and
// MaterializeDim, nothing of internal/serve between the loader and the sums.
func localSums(spec workloads.Spec, epoch int, chosen []serve.PlanBatch) ([]sums, error) {
	batchPlan := make([][]int, len(chosen))
	for i, pb := range chosen {
		batchPlan[i] = pb.Indices
	}
	cfg := pipeline.Config{
		BatchSize:      spec.BatchSize,
		NumWorkers:     1,
		PinMemory:      spec.PinMemory,
		Seed:           spec.Seed,
		Epoch:          epoch,
		BatchPlan:      batchPlan,
		Mode:           pipeline.RealData,
		MaterializeDim: materializeDim,
	}
	out := make([]sums, 0, len(chosen))
	var err error
	clk := clock.NewReal()
	clk.Run("perf-reference", func(p clock.Proc) {
		it := pipeline.NewDataLoader(clk, spec.Dataset(nil), cfg).Start(p)
		defer it.Drain(p)
		for {
			b, ok := it.Next(p)
			if !ok {
				err = it.Err()
				return
			}
			out = append(out, sumsOf(b.Data, b.Indices, b.Labels))
		}
	})
	if err == nil && len(out) != len(chosen) {
		err = fmt.Errorf("local run produced %d of %d batches", len(out), len(chosen))
	}
	return out, err
}
