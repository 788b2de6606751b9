package serve

import (
	"cmp"
	"hash/crc32"
	"testing"

	"lotus/internal/clock"
	"lotus/internal/pipeline"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// TestPinnedTensorCRCs pins the bytes of the benchmark's served
// configurations to values taken before the decoder took a window and the
// plan learned to hand it one: CRC32C of the collated
// float32 tensor in wire form (little-endian), global batch 0 of
// BuildEpochPlan(512, 32, true, false, seed, epoch) at perf's geometry (N 512,
// batch 32, cap 256). Every other identity test compares two runs of this
// build; this one compares this build with that one — through the local
// DataLoader (the crop→decode rewrite on for IC), and through a loopback
// server with the sample cache off (rewrite on) and on (rewrite off).
func TestPinnedTensorCRCs(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	const dim = 256
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	sum := func(f32 []float32) uint32 {
		return crc32.Checksum(appendF32(nil, f32), castagnoli)
	}
	for _, g := range []struct {
		name  string
		spec  workloads.Spec
		epoch int
		want  uint32
		batch int // 0: 32
	}{
		{"IC seed 7", workloads.ICSpec(512, 7), 0, 0xaa619e99, 0},
		{"IC seed 7", workloads.ICSpec(512, 7), 1, 0x469c905f, 0},
		{"IC seed 11", workloads.ICSpec(512, 11), 1, 0x267cb3ef, 0},
		{"ICA seed 7", workloads.ICASpec(512, 7), 1, 0xec892521, 0},
		{"OD seed 7", workloads.ODSpec(512, 7), 1, 0x6b77be6f, 2},
	} {
		spec := g.spec
		spec.BatchSize = cmp.Or(g.batch, 32)
		spec.NumWorkers = 2
		pb := BuildEpochPlan(spec.NumSamples, spec.BatchSize, spec.Shuffle, false, spec.Seed, g.epoch)[0]

		clk := clock.NewReal()
		clk.Run("pinned-local", func(p clock.Proc) {
			it := pipeline.NewDataLoader(clk, spec.Dataset(nil), pipeline.Config{
				BatchSize: spec.BatchSize, NumWorkers: 1, Seed: spec.Seed, Epoch: g.epoch,
				BatchPlan: [][]int{pb.Indices}, Mode: pipeline.RealData, MaterializeDim: dim,
			}).Start(p)
			defer it.Drain(p)
			b, ok := it.Next(p)
			if !ok {
				t.Errorf("%s epoch %d: local loader: %v", g.name, g.epoch, it.Err())
				return
			}
			if got := sum(b.Data.F32); got != g.want {
				t.Errorf("%s epoch %d: local DataLoader tensor CRC32C %#08x, pinned %#08x", g.name, g.epoch, got, g.want)
			}
		})

		for _, sampleCache := range []int64{0, 64 << 20} {
			srv := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: dim,
				SampleCacheBytes: sampleCache, Prefetch: 2, Logf: t.Logf})
			if err := srv.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "pinned"})
			if err := c.Connect(); err != nil {
				t.Fatal(err)
			}
			batches := 0
			err := c.FetchShard(g.epoch, []int{pb.GlobalID}, func(b *Batch, _ []byte) {
				batches++
				if got := sum(b.F32); got != g.want {
					t.Errorf("%s epoch %d sample cache %d MiB: served tensor CRC32C %#08x, pinned %#08x",
						g.name, g.epoch, sampleCache>>20, got, g.want)
				}
			})
			if err != nil || batches != 1 {
				t.Errorf("%s epoch %d: fetched %d batches: %v", g.name, g.epoch, batches, err)
			}
			c.Close()
			srv.Close()
		}
	}
}
