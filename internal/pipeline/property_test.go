package pipeline

import (
	"testing"
	"testing/quick"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/native"
)

// TestPropertyEpochInvariants: for any (n, batch, workers, prefetch,
// shuffle) the epoch delivers every index exactly once, batches arrive in ID
// order, sizes are correct, and timestamps are coherent.
func TestPropertyEpochInvariants(t *testing.T) {
	if err := quick.Check(func(nRaw, bRaw, wRaw, pfRaw uint8, shuffle bool, seed int64) bool {
		n := int(nRaw%80) + 1
		batch := int(bRaw%12) + 1
		workers := int(wRaw%5) + 1
		prefetch := int(pfRaw%3) + 1

		sim := clock.NewSim()
		ds := data.NewImageDataset(data.ImageNetConfig(n, 1))
		c := NewCompose(
			&Loader{IO: data.DefaultIO()},
			&RandomResizedCrop{Size: 64},
			&ToTensor{},
		)
		dl := NewDataLoader(sim, NewImageFolder(ds, c), Config{
			BatchSize: batch, NumWorkers: workers, PrefetchFactor: prefetch,
			Shuffle: shuffle, Seed: seed, PinMemory: true,
			Mode: Simulated, Engine: native.NewEngine(native.Intel),
		})
		var batches []*Batch
		sim.Run("main", func(p clock.Proc) {
			it := dl.Start(p)
			for {
				b, ok := it.Next(p)
				if !ok {
					break
				}
				batches = append(batches, b)
			}
		})

		wantBatches := (n + batch - 1) / batch
		if len(batches) != wantBatches {
			return false
		}
		seen := map[int]bool{}
		var prevConsumeID = -1
		for _, b := range batches {
			if b.ID != prevConsumeID+1 {
				return false
			}
			prevConsumeID = b.ID
			if b.WorkerID < 0 || b.WorkerID >= workers {
				return false
			}
			if b.PreprocessedAt.Before(clock.Epoch) {
				return false
			}
			for _, idx := range b.Indices {
				if idx < 0 || idx >= n || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return len(seen) == n
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyIterableEpochInvariants mirrors the map-style property for the
// stream loader.
func TestPropertyIterableEpochInvariants(t *testing.T) {
	if err := quick.Check(func(nRaw, bRaw, wRaw uint8, seed int64) bool {
		n := int(nRaw%60) + 1
		batch := int(bRaw%8) + 1
		workers := int(wRaw%5) + 1

		sim := clock.NewSim()
		ds := data.NewImageDataset(data.ImageNetConfig(n, 1))
		c := NewCompose(&Loader{IO: data.DefaultIO()}, &ToTensor{})
		il := NewIterableLoader(sim, &ImageStream{Folder: NewImageFolder(ds, c)}, Config{
			BatchSize: batch, NumWorkers: workers, Seed: seed,
			Mode: Simulated, Engine: native.NewEngine(native.Intel),
		})
		seen := map[int]bool{}
		prev := -1
		okRun := true
		sim.Run("main", func(p clock.Proc) {
			it := il.Start(p)
			for {
				b, ok := it.Next(p)
				if !ok {
					return
				}
				if b.ID <= prev {
					okRun = false
				}
				prev = b.ID
				for _, idx := range b.Indices {
					if seen[idx] {
						okRun = false
					}
					seen[idx] = true
				}
			}
		})
		return okRun && len(seen) == n
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTransformGeometry: any image transform chain leaves the
// sample's logical geometry consistent with the declared output (224x224
// float32 after the IC chain), for arbitrary input sizes.
func TestPropertyTransformGeometry(t *testing.T) {
	engine := native.NewEngine(native.Intel)
	if err := quick.Check(func(wRaw, hRaw uint16, seed int64) bool {
		w := int(wRaw%1500) + 64
		h := int(hRaw%1500) + 64
		sim := clock.NewSim()
		out := Sample{}
		sim.Run("root", func(p clock.Proc) {
			ctx := &Ctx{Proc: p, Engine: engine, Thread: &native.Thread{ID: 1}, Mode: Simulated, Seed: seed}
			s := Sample{Index: 0, FileBytes: w * h / 4, Seed: seed, Width: w, Height: h, Channels: 3}
			c := NewCompose(
				&Loader{IO: data.IOModel{}},
				&RandomResizedCrop{Size: 224},
				&RandomHorizontalFlip{},
				&ToTensor{},
				&Normalize{Mean: []float32{0, 0, 0}, Std: []float32{1, 1, 1}},
			)
			out = c.Apply(ctx, 1, 0, s)
		})
		return out.Width == 224 && out.Height == 224 && out.Channels == 3 &&
			out.RawBytes() == 224*224*3*4
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
