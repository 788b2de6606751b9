package pipeline

import (
	"strings"
	"testing"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/native"
)

// faultyTransform panics on specific sample indices — corrupt-record
// injection.
type faultyTransform struct {
	failOn map[int]bool
}

func (f *faultyTransform) Name() string        { return "Faulty" }
func (f *faultyTransform) Kernels() []string   { return []string{"memcpy"} }
func (f *faultyTransform) Deterministic() bool { return false }

func (f *faultyTransform) Apply(ctx *Ctx, s Sample) Sample {
	if f.failOn[s.Index] {
		panic("corrupt record")
	}
	ctx.Work(native.Call{Kernel: "memcpy", Bytes: 1024})
	return s
}

func faultyLoader(clk clock.Clock, n, batch, workers int, failOn map[int]bool, policy ErrorPolicy) *DataLoader {
	ds := data.NewImageDataset(data.ImageNetConfig(n, 1))
	c := NewCompose(
		&Loader{IO: data.DefaultIO()},
		&faultyTransform{failOn: failOn},
		&ToTensor{},
	)
	return NewDataLoader(clk, NewImageFolder(ds, c), Config{
		BatchSize: batch, NumWorkers: workers, Seed: 1, OnError: policy,
		Mode: Simulated, Engine: native.NewEngine(native.Intel),
	})
}

func TestWorkerPanicFailsEpochWithError(t *testing.T) {
	sim := clock.NewSim()
	dl := faultyLoader(sim, 40, 10, 2, map[int]bool{25: true}, FailEpoch)
	var consumed int
	var err error
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				err = it.Err()
				return
			}
			consumed++
		}
	})
	if err == nil {
		t.Fatal("epoch should fail with the worker's error")
	}
	if !strings.Contains(err.Error(), "corrupt record") || !strings.Contains(err.Error(), "worker") {
		t.Fatalf("error should carry worker context and cause: %v", err)
	}
	if consumed >= 4 {
		t.Fatalf("consumed %d batches; the failed batch must not be delivered", consumed)
	}
}

func TestWorkerPanicSkipBatchContinues(t *testing.T) {
	sim := clock.NewSim()
	// Sample 25 lands in batch 2 (indices 20-29, unshuffled).
	dl := faultyLoader(sim, 40, 10, 2, map[int]bool{25: true}, SkipBatch)
	var ids []int
	var skipped []int
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			b, ok := it.Next(p)
			if !ok {
				skipped = it.Skipped()
				if it.Err() != nil {
					t.Errorf("SkipBatch must not set Err: %v", it.Err())
				}
				return
			}
			ids = append(ids, b.ID)
		}
	})
	if len(ids) != 3 {
		t.Fatalf("delivered %d batches, want 3 (one skipped)", len(ids))
	}
	if len(skipped) != 1 || skipped[0] != 2 {
		t.Fatalf("skipped = %v, want [2]", skipped)
	}
	for _, id := range ids {
		if id == 2 {
			t.Fatal("the corrupt batch was delivered")
		}
	}
}

func TestMultipleFailuresSkipBatch(t *testing.T) {
	sim := clock.NewSim()
	dl := faultyLoader(sim, 60, 10, 3, map[int]bool{5: true, 35: true, 55: true}, SkipBatch)
	delivered := 0
	var skipped []int
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				skipped = it.Skipped()
				return
			}
			delivered++
		}
	})
	if delivered != 3 || len(skipped) != 3 {
		t.Fatalf("delivered %d, skipped %v", delivered, skipped)
	}
}

func TestFailEpochTerminatesWorkersCleanly(t *testing.T) {
	// After a FailEpoch teardown, the simulation must still finish (all
	// workers exit) — sim.Run would panic on deadlock otherwise.
	sim := clock.NewSim()
	dl := faultyLoader(sim, 100, 10, 4, map[int]bool{3: true}, FailEpoch)
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				return
			}
		}
	})
}

func TestNoFailuresNoErrNoSkips(t *testing.T) {
	sim := clock.NewSim()
	dl := faultyLoader(sim, 30, 10, 2, nil, FailEpoch)
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		n := 0
		for {
			if _, ok := it.Next(p); !ok {
				break
			}
			n++
		}
		if n != 3 || it.Err() != nil || len(it.Skipped()) != 0 {
			t.Errorf("clean run: n=%d err=%v skipped=%v", n, it.Err(), it.Skipped())
		}
	})
}
