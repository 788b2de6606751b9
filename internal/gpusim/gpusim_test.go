package gpusim

import (
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

func icLoader(sim *clock.Sim, n, batch, workers int, hooks *pipeline.Hooks) *pipeline.DataLoader {
	ds := data.NewImageDataset(data.ImageNetConfig(n, 1))
	c := pipeline.NewCompose(
		&pipeline.Loader{IO: data.DefaultIO()},
		&pipeline.RandomResizedCrop{Size: 224},
		&pipeline.RandomHorizontalFlip{},
		&pipeline.ToTensor{},
		&pipeline.Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
	)
	c.Hooks = hooks
	return pipeline.NewDataLoader(sim, pipeline.NewImageFolder(ds, c), pipeline.Config{
		BatchSize:  batch,
		NumWorkers: workers,
		Seed:       1,
		Hooks:      hooks,
		Mode:       pipeline.Simulated,
		Engine:     native.NewEngine(native.Intel),
	})
}

func TestBatchTimeSplitsAcrossGPUs(t *testing.T) {
	cfg := GPUConfig{PerSample: time.Millisecond, PerBatch: 10 * time.Millisecond}
	one := cfg.BatchTime(128, 1)
	four := cfg.BatchTime(128, 4)
	if one != 138*time.Millisecond {
		t.Fatalf("1-GPU time %v", one)
	}
	if four != 42*time.Millisecond {
		t.Fatalf("4-GPU time %v", four)
	}
}

func TestPreprocessingBottleneckLeavesGPUIdle(t *testing.T) {
	sim := clock.NewSim()
	dl := icLoader(sim, 120, 20, 1, nil) // 1 worker: preprocessing-bound
	trainer := &Trainer{Loader: dl, GPUs: 4, GPU: GPUConfig{PerSample: 20 * time.Microsecond, PerBatch: time.Millisecond}}
	var stats EpochStats
	sim.Run("main", func(p clock.Proc) { stats = trainer.RunEpoch(p) })
	if stats.Batches != 6 {
		t.Fatalf("trained %d batches", stats.Batches)
	}
	if stats.GPUUtilization() > 0.5 {
		t.Fatalf("GPU utilization %.2f — should be mostly idle when preprocessing-bound", stats.GPUUtilization())
	}
	if stats.MainWaitTime < stats.Elapsed/4 {
		t.Fatalf("main wait %v of %v — main should spend most time waiting", stats.MainWaitTime, stats.Elapsed)
	}
}

func TestGPUBottleneckKeepsGPUBusy(t *testing.T) {
	sim := clock.NewSim()
	dl := icLoader(sim, 120, 20, 4, nil)
	// Very slow GPU: 40ms per sample.
	trainer := &Trainer{Loader: dl, GPUs: 1, GPU: GPUConfig{PerSample: 40 * time.Millisecond}}
	var stats EpochStats
	sim.Run("main", func(p clock.Proc) { stats = trainer.RunEpoch(p) })
	if stats.GPUUtilization() < 0.9 {
		t.Fatalf("GPU utilization %.2f — should be saturated when GPU-bound", stats.GPUUtilization())
	}
	// Main should hardly wait for preprocessing.
	if stats.MainWaitTime > stats.Elapsed/10 {
		t.Fatalf("main wait %v of %v — preprocessing should keep up", stats.MainWaitTime, stats.Elapsed)
	}
}

func TestMoreWorkersShortenPreprocessingBoundEpoch(t *testing.T) {
	elapsed := func(workers int) time.Duration {
		sim := clock.NewSim()
		dl := icLoader(sim, 200, 25, workers, nil)
		trainer := &Trainer{Loader: dl, GPUs: 4, GPU: GPUConfig{PerSample: 10 * time.Microsecond, PerBatch: time.Millisecond}}
		var stats EpochStats
		sim.Run("main", func(p clock.Proc) { stats = trainer.RunEpoch(p) })
		return stats.Elapsed
	}
	e1, e4 := elapsed(1), elapsed(4)
	if float64(e4) > 0.5*float64(e1) {
		t.Fatalf("4 workers (%v) should cut epoch well below half of 1 worker (%v)", e4, e1)
	}
}

func TestGPUBoundProducesDelayedBatches(t *testing.T) {
	// When the GPU is the bottleneck, preprocessed batches sit in the data
	// queue; delay (consumption - preprocessed) far exceeds the
	// preprocessing-bound case.
	delays := func(perSample time.Duration) (maxDelay time.Duration) {
		var consumed = map[int]struct {
			at time.Time
		}{}
		var pre = map[int]time.Time{}
		hooks := &pipeline.Hooks{
			OnBatchPreprocessed: func(pid, batchID int, start time.Time, dur time.Duration) {
				pre[batchID] = start.Add(dur)
			},
			OnBatchConsumed: func(pid, batchID int, start time.Time, dur time.Duration) {
				consumed[batchID] = struct{ at time.Time }{start}
			},
		}
		sim := clock.NewSim()
		dl := icLoader(sim, 120, 20, 4, hooks)
		trainer := &Trainer{Loader: dl, GPUs: 1, GPU: GPUConfig{PerSample: perSample}}
		sim.Run("main", func(p clock.Proc) { trainer.RunEpoch(p) })
		for id, c := range consumed {
			if d := c.at.Sub(pre[id]); d > maxDelay {
				maxDelay = d
			}
		}
		return maxDelay
	}
	slowGPU := delays(40 * time.Millisecond)
	fastGPU := delays(10 * time.Microsecond)
	if slowGPU < 4*fastGPU {
		t.Fatalf("GPU-bound max delay %v should dwarf preprocessing-bound %v", slowGPU, fastGPU)
	}
}

func TestEpochStatsAccounting(t *testing.T) {
	sim := clock.NewSim()
	dl := icLoader(sim, 60, 20, 2, nil)
	trainer := &Trainer{Loader: dl, GPUs: 2, GPU: GPUConfig{PerSample: time.Millisecond, PerBatch: 5 * time.Millisecond}}
	var stats EpochStats
	var elapsed time.Duration
	sim.Run("main", func(p clock.Proc) {
		stats = trainer.RunEpoch(p)
		elapsed = p.Now().Sub(clock.Epoch)
	})
	if stats.Batches != 3 {
		t.Fatalf("batches %d", stats.Batches)
	}
	// GPU busy must equal batches x batch time.
	want := 3 * trainer.GPU.BatchTime(20, 2)
	if stats.GPUBusy != want {
		t.Fatalf("GPUBusy %v, want %v", stats.GPUBusy, want)
	}
	// Elapsed covers the last batch's device completion.
	if stats.Elapsed != elapsed {
		t.Fatalf("Elapsed %v vs clock %v", stats.Elapsed, elapsed)
	}
	// Busy + idle partitions device wall time up to the epoch end.
	if stats.GPUBusy+stats.GPUIdle > stats.Elapsed+time.Millisecond {
		t.Fatalf("busy(%v)+idle(%v) exceeds elapsed(%v)", stats.GPUBusy, stats.GPUIdle, stats.Elapsed)
	}
}

func TestGPUUtilizationEdgeCases(t *testing.T) {
	if (EpochStats{}).GPUUtilization() != 0 {
		t.Fatal("zero stats utilization")
	}
	s := EpochStats{GPUBusy: time.Second, GPUIdle: time.Second}
	if u := s.GPUUtilization(); u != 0.5 {
		t.Fatalf("utilization %v", u)
	}
}

func TestBatchTimeDefaultsSingleGPU(t *testing.T) {
	cfg := GPUConfig{PerSample: time.Millisecond}
	if cfg.BatchTime(10, 0) != cfg.BatchTime(10, 1) {
		t.Fatal("g<=0 should behave as one device")
	}
	// Uneven splits round up (the slowest device gates the batch).
	if cfg.BatchTime(10, 3) != 4*time.Millisecond {
		t.Fatalf("BatchTime(10,3) = %v, want 4ms", cfg.BatchTime(10, 3))
	}
}
