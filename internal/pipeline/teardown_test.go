package pipeline

import (
	"strings"
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/faultinject"
	"lotus/internal/native"
)

// TestAbortDrainCreditsAllInFlightWork pins the teardown of an epoch that
// stops early: a worker failure ends it under FailEpoch with batches still
// in flight, and a worker mid-batch at that moment puts its result on the
// data queue *after* any non-blocking sweep would have returned. Drain must
// block until every dispatched batch is accounted for, so no stale result
// stays queued and no outstanding work stays uncredited.
func TestAbortDrainCreditsAllInFlightWork(t *testing.T) {
	sim := clock.NewSim()
	dl := faultyLoader(sim, 80, 10, 4, map[int]bool{25: true}, FailEpoch)
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		// Batches 0 and 1 arrive; batch 2 holds the failing sample, so the
		// epoch aborts there with several more dispatched.
		for i := 0; i < 2; i++ {
			if _, ok := it.Next(p); !ok {
				t.Error("epoch ended before the failing batch")
				return
			}
		}
		if _, ok := it.Next(p); ok || it.Err() == nil {
			t.Error("the failing batch did not abort the epoch")
			return
		}
		if it.seen == dl.sendIdx {
			t.Error("nothing was in flight at the abort; the test exercises nothing")
		}
		it.Drain(p)

		// Every dispatched batch produced exactly one result and Drain saw
		// them all: nothing left on the data queue...
		if n := dl.dataQ.Len(); n != 0 {
			t.Errorf("%d stale results left on the data queue after Drain", n)
		}
		if it.seen != dl.sendIdx {
			t.Errorf("Drain consumed %d results for %d dispatched batches", it.seen, dl.sendIdx)
		}
		// ...and every worker's outstanding-work estimate was credited back.
		for w, o := range dl.outstanding {
			if o != 0 {
				t.Errorf("worker %d still carries %.1f uncredited outstanding work", w, o)
			}
		}
		if dl.creditDrift != 0 {
			t.Errorf("the outstanding ledger drifted %d times", dl.creditDrift)
		}
		if _, ok := it.Next(p); ok {
			t.Error("iterator yielded a batch after the epoch failed")
		}
	})
}

// TestBuildBatchPlanBatchesAreIndependent pins the batch-aliasing fix: plan
// batches used to be sub-slices of one shared order array, so appending to
// one batch (within its capacity) silently overwrote its neighbor's indices.
func TestBuildBatchPlanBatchesAreIndependent(t *testing.T) {
	plan := BuildBatchPlan(20, 5, false, false, 1)
	if len(plan) != 4 {
		t.Fatalf("plan has %d batches, want 4", len(plan))
	}
	want1 := append([]int(nil), plan[1]...)
	// With aliased sub-slices this append lands inside plan[1]'s backing
	// array and corrupts its first index.
	plan[0] = append(plan[0], 999)
	for i, idx := range plan[1] {
		if idx != want1[i] {
			t.Fatalf("appending to batch 0 corrupted batch 1: got %v, want %v", plan[1], want1)
		}
	}
}

// TestInjectedReadErrorsSkipExactlyPredictedBatches: the index-keyed fault
// decisions are schedule-independent, so FailingBatches' prediction must
// match Iterator.Skipped exactly, whatever the worker interleaving.
func TestInjectedReadErrorsSkipExactlyPredictedBatches(t *testing.T) {
	inj := faultinject.New(faultinject.Spec{Seed: 9, ReadErrorNth: 7})
	n, batch := 60, 10
	plan := BuildBatchPlan(n, batch, false, false, 1)
	predicted := inj.FailingBatches(plan)
	if len(predicted) == 0 {
		t.Fatal("test needs at least one predicted failing batch; pick another seed")
	}

	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(n, 1))
	c := NewCompose(&Loader{IO: data.DefaultIO()}, &ToTensor{})
	dl := NewDataLoader(sim, NewImageFolder(ds, c), Config{
		BatchSize: batch, NumWorkers: 3, Seed: 1, OnError: SkipBatch,
		Mode: Simulated, Engine: native.NewEngine(native.Intel, native.DefaultCPU()),
		Faults: inj,
	})
	var skipped []int
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				skipped = it.Skipped()
				if it.Err() != nil {
					t.Errorf("SkipBatch run set Err: %v", it.Err())
				}
				return
			}
		}
	})
	if len(skipped) != len(predicted) {
		t.Fatalf("skipped %v, predicted %v", skipped, predicted)
	}
	seen := map[int]bool{}
	for _, id := range skipped {
		seen[id] = true
	}
	for _, id := range predicted {
		if !seen[id] {
			t.Fatalf("predicted failing batch %d was not skipped (skipped %v)", id, skipped)
		}
	}
	if got := inj.Counts().ReadErrors; got == 0 {
		t.Fatal("injector fired no read errors")
	}
}

// TestInjectedWorkerStallDelaysBatch: a batch stall must delay the batch's
// arrival (visible virtual time passes) without failing it.
func TestInjectedWorkerStallDelaysBatch(t *testing.T) {
	run := func(inj *faultinject.Injector) time.Duration {
		sim := clock.NewSim()
		ds := data.NewImageDataset(data.ImageNetConfig(20, 1))
		c := NewCompose(&Loader{IO: data.DefaultIO()}, &ToTensor{})
		dl := NewDataLoader(sim, NewImageFolder(ds, c), Config{
			BatchSize: 5, NumWorkers: 2, Seed: 1,
			Mode: Simulated, Engine: native.NewEngine(native.Intel, native.DefaultCPU()),
			Faults: inj,
		})
		var end time.Time
		sim.Run("main", func(p clock.Proc) {
			it := dl.Start(p)
			n := 0
			for {
				if _, ok := it.Next(p); !ok {
					break
				}
				n++
			}
			if n != 4 || it.Err() != nil {
				t.Errorf("stall run delivered %d batches, err %v", n, it.Err())
			}
			end = p.Now()
		})
		return end.Sub(clock.Epoch)
	}
	base := run(nil)
	stalled := run(faultinject.New(faultinject.Spec{Seed: 3, StallNth: 1, WorkerStall: 500 * time.Millisecond}))
	if stalled <= base {
		t.Fatalf("stalled epoch took %v, baseline %v; injected stalls must cost virtual time", stalled, base)
	}
}

// TestInjectedReadErrorSurfacesAsInjected: under FailEpoch the surfaced
// error must be recognizable as the injected sentinel, not a generic panic.
func TestInjectedReadErrorSurfacesAsInjected(t *testing.T) {
	inj := faultinject.New(faultinject.Spec{Seed: 9, ReadErrorNth: 7})
	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(60, 1))
	c := NewCompose(&Loader{IO: data.DefaultIO()}, &ToTensor{})
	dl := NewDataLoader(sim, NewImageFolder(ds, c), Config{
		BatchSize: 10, NumWorkers: 2, Seed: 1, OnError: FailEpoch,
		Mode: Simulated, Engine: native.NewEngine(native.Intel, native.DefaultCPU()),
		Faults: inj,
	})
	var err error
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				err = it.Err()
				return
			}
		}
	})
	if err == nil {
		t.Fatal("FailEpoch run with injected read errors must fail")
	}
	// The worker wraps the panic value into an error string; the sentinel
	// text must survive so operators can tell injected faults from real ones.
	if !strings.Contains(err.Error(), faultinject.ErrInjectedRead.Error()) {
		t.Fatalf("surfaced error does not identify the injected read: %v", err)
	}
}
