package pipeline

import (
	"bytes"
	"testing"

	"lotus/internal/clock"
	"lotus/internal/data"
)

// fastRealDataset returns a small dataset with zero modeled I/O latency so
// real-clock real-mode tests finish quickly.
func fastRealDataset(n int, seed int64) *data.ImageDataset {
	return data.NewImageDataset(data.ImageConfig{
		Name: "epochtest", N: n, MeanFileKB: 20, StdFileKB: 5, MinFileKB: 10, MaxFileKB: 40,
		CompressionRatio: 10, Classes: 4, Seed: seed,
		IO: data.IOModel{BaseLatency: 0, BandwidthMBps: 0},
	})
}

// TestEpochSeedMatchesTrainer pins the epoch seed derivation, seed +
// epoch·1_000_003: the wire protocol fixes it, since a served epoch's plan is
// built from it on the server and must equal the local DataLoader's.
func TestEpochSeedMatchesTrainer(t *testing.T) {
	for _, epoch := range []int{0, 1, 2, 17} {
		if got, want := EpochSeed(7, epoch), int64(7)+int64(epoch)*1_000_003; got != want {
			t.Fatalf("EpochSeed(7, %d) = %d, want %d", epoch, got, want)
		}
	}
}

// augmentedTestCompose is the ICA shape at test scale: a two-op deterministic
// prefix (decode + resize) and a fully random suffix.
func augmentedTestCompose(io data.IOModel) *Compose {
	return NewCompose(
		&Loader{IO: io},
		&Resize{W: 64, H: 64},
		&RandomCrop{Size: 48},
		&RandomHorizontalFlip{},
		&RandomPixelNoise{},
		&ToTensor{},
		&Normalize{Mean: []float32{0.5, 0.5, 0.5}, Std: []float32{0.25, 0.25, 0.25}},
	)
}

// runRealEpoch runs one real-mode epoch on the wall clock and returns each
// batch's collated float32 payload keyed by batch ID.
func runRealEpoch(t *testing.T, ds *data.ImageDataset, workers, epoch int, cache *SampleCache, fp uint64) map[int][]float32 {
	t.Helper()
	clk := clock.NewReal()
	dl := NewDataLoader(clk, NewImageFolder(ds, augmentedTestCompose(ds.IO)), Config{
		BatchSize: 4, NumWorkers: workers, Shuffle: true, Seed: 5, Epoch: epoch,
		Mode: RealData, MaterializeDim: 64, SampleCache: cache, PrefixFP: fp,
	})
	out := make(map[int][]float32)
	clk.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			b, ok := it.Next(p)
			if !ok {
				if err := it.Err(); err != nil {
					t.Errorf("epoch %d loader: %v", epoch, err)
				}
				return
			}
			out[b.ID] = append([]float32(nil), b.Data.F32...)
		}
	})
	return out
}

// TestEpochZeroSaltIsIdentity pins the epoch seam's backward-compatibility
// contract: epoch 0 salts to zero, so every random stream a pre-epoch Config
// produced is preserved bit for bit, and later epochs genuinely reseed.
func TestEpochZeroSaltIsIdentity(t *testing.T) {
	if got := epochSalt(0); got != 0 {
		t.Fatalf("epochSalt(0) = %d, want 0", got)
	}
	legacy := &Ctx{Seed: 9} // Epoch field never set
	epoch0 := &Ctx{Seed: 9, Epoch: 0}
	epoch1 := &Ctx{Seed: 9, Epoch: 1}
	for idx := 0; idx < 8; idx++ {
		a, b := legacy.SampleRNG(idx), epoch0.SampleRNG(idx)
		c := epoch1.SampleRNG(idx)
		same1, diff := true, false
		for d := 0; d < 16; d++ {
			va, vb, vc := a.Int63(), b.Int63(), c.Int63()
			if va != vb {
				same1 = false
			}
			if va != vc {
				diff = true
			}
		}
		if !same1 {
			t.Fatalf("sample %d: epoch-0 stream diverges from the legacy stream", idx)
		}
		if !diff {
			t.Fatalf("sample %d: epoch-1 stream identical to epoch 0", idx)
		}
	}
}

// TestEpochVariesSuffixNotPrefix drives one sample through the augmented
// pipeline at two epochs: the deterministic prefix must produce byte-identical
// pixels (that is what makes it cacheable across epochs), while the full
// pipeline must produce different bytes (that is what makes it an
// augmentation).
func TestEpochVariesSuffixNotPrefix(t *testing.T) {
	ds := fastRealDataset(4, 3)
	run := func(epoch int, prefixOnly bool) []byte {
		clk := clock.NewReal()
		var out []byte
		clk.Run("main", func(p clock.Proc) {
			ctx := &Ctx{Proc: p, Mode: RealData, Seed: 5, Epoch: epoch, MaterializeDim: 64}
			c := augmentedTestCompose(ds.IO)
			rec := ds.Record(1)
			s := Sample{Index: 1, FileBytes: rec.FileBytes, Seed: rec.Seed,
				Width: rec.Width, Height: rec.Height, Channels: 3}
			if prefixOnly {
				s = c.ApplyPrefix(ctx, 1, 0, s)
				out = append([]byte(nil), s.Image.Pix...)
				s.Image.Release()
				return
			}
			s = c.Apply(ctx, 1, 0, s)
			out = make([]byte, 0, len(s.Tensor.F32)*4)
			for _, f := range s.Tensor.F32 {
				out = append(out, byte(f), byte(int(f*255)))
			}
		})
		return out
	}
	if !bytes.Equal(run(0, true), run(3, true)) {
		t.Fatal("deterministic prefix bytes changed with the epoch")
	}
	if bytes.Equal(run(0, false), run(3, false)) {
		t.Fatal("augmented pipeline produced identical bytes at epochs 0 and 3")
	}
}

// TestEpochBytesScheduleIndependent is the seam's core regression: per-sample
// randomness derives from (seed, epoch, index) only, so the same epoch run
// with 1 worker and with 4 workers must produce byte-identical batches even
// though samples land on different workers in a different order.
func TestEpochBytesScheduleIndependent(t *testing.T) {
	ds := fastRealDataset(24, 3)
	const epoch = 2
	one := runRealEpoch(t, ds, 1, epoch, nil, 0)
	four := runRealEpoch(t, ds, 4, epoch, nil, 0)
	if len(one) != len(four) || len(one) == 0 {
		t.Fatalf("batch counts diverge: %d vs %d", len(one), len(four))
	}
	for id, want := range one {
		got, ok := four[id]
		if !ok {
			t.Fatalf("batch %d missing from the 4-worker run", id)
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d: payload lengths diverge", id)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d diverges at element %d across worker counts", id, i)
			}
		}
	}
}

// TestEpochsProduceDistinctAugmentedBytes: consecutive epochs of the augmented
// pipeline must not repeat their random draws (the bug the epoch salt exists
// to prevent: identical augmentation every epoch).
func TestEpochsProduceDistinctAugmentedBytes(t *testing.T) {
	ds := fastRealDataset(8, 3)
	e0 := runRealEpoch(t, ds, 2, 0, nil, 0)
	e1 := runRealEpoch(t, ds, 2, 1, nil, 0)
	// Shuffle plans differ across epochs, so compare the concatenation of all
	// batches in ID order — if the salt were dead, the same sample set would
	// yield the same multiset of bytes per sample; full-payload equality is a
	// conservative proxy that must not hold.
	flat := func(m map[int][]float32) []float32 {
		var out []float32
		for id := 0; id < len(m); id++ {
			out = append(out, m[id]...)
		}
		return out
	}
	a, b := flat(e0), flat(e1)
	if len(a) != len(b) {
		t.Fatalf("epoch payload sizes diverge: %d vs %d", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epochs 0 and 1 produced byte-identical augmented output")
	}
}
