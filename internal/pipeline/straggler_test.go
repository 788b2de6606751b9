package pipeline

import (
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
)

// stragglerLoader builds a real-pixel loader under the sim clock, so the
// outstanding-work ledger is exercised with size-aware batch costs.
func stragglerLoader(clk clock.Clock, n, batch, workers int, policy DispatchPolicy) *DataLoader {
	ds := data.NewImageDataset(data.ImageConfig{
		Name: "straggler", N: n, MeanFileKB: 20, StdFileKB: 5, MinFileKB: 10, MaxFileKB: 40,
		CompressionRatio: 10, Classes: 4, Seed: 3,
		IO: data.IOModel{BaseLatency: time.Millisecond, BandwidthMBps: 200},
	})
	c := NewCompose(
		&Loader{IO: ds.IO},
		&RandomResizedCrop{Size: 24},
		&RandomHorizontalFlip{},
		&ToTensor{},
	)
	return NewDataLoader(clk, NewImageFolder(ds, c), Config{
		BatchSize: batch, NumWorkers: workers, Seed: 7, Dispatch: policy,
		Mode: RealData, MaterializeDim: 32,
	})
}

// TestLeastWorkChargesRecordBytes: a DispatchLeastWork loader over an
// ImageFolder charges each batch its samples' encoded file bytes, with no
// hint from the caller, and a DispatchProducer loader charges sample counts.
func TestLeastWorkChargesRecordBytes(t *testing.T) {
	for _, policy := range []DispatchPolicy{DispatchProducer, DispatchLeastWork} {
		dl := stragglerLoader(clock.NewSim(), 16, 4, 2, policy)
		folder := dl.dataset.(*ImageFolder)
		for i, idxs := range dl.batches {
			want := float64(len(idxs))
			if policy == DispatchLeastWork {
				want = 0
				for _, idx := range idxs {
					want += float64(folder.Data.Record(idx).FileBytes)
				}
			}
			if dl.batchCost[i] != want {
				t.Errorf("policy %d batch %d costs %v, want %v", policy, i, dl.batchCost[i], want)
			}
		}
	}
}

// TestCompletedDoubleCreditCountsDrift is the regression test for the
// satellite fix: completed() used to clamp a negative outstanding estimate to
// zero silently, hiding double-credit bugs. A clean epoch must report zero
// drift, and an injected double credit must be surfaced, not swallowed.
func TestCompletedDoubleCreditCountsDrift(t *testing.T) {
	sim := clock.NewSim()
	dl := stragglerLoader(sim, 16, 4, 2, DispatchLeastWork)
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				break
			}
		}
	})
	if drift := dl.creditDrift; drift != 0 {
		t.Fatalf("clean epoch reports drift %d", drift)
	}
	// Credit batch 0 a second time: the ledger goes negative by a full batch
	// cost, far beyond rounding noise.
	dl.completed(0, 0)
	if drift := dl.creditDrift; drift == 0 {
		t.Fatal("double credit was clamped silently; drift counter never fired")
	}
	// The clamp itself must survive (estimates stay usable for dispatch).
	if dl.outstanding[0] != 0 {
		t.Fatalf("outstanding[0] = %v, want clamped 0", dl.outstanding[0])
	}
}
