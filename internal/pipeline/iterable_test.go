package pipeline

import (
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/native"
)

func runIterableEpoch(t *testing.T, n, batch, workers int, hooks *Hooks) []*Batch {
	t.Helper()
	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(n, 1))
	c := icCompose(hooks)
	stream := &ImageStream{Folder: NewImageFolder(ds, c)}
	il := NewIterableLoader(sim, stream, Config{
		BatchSize:  batch,
		NumWorkers: workers,
		Seed:       1,
		Hooks:      hooks,
		Mode:       Simulated,
		Engine:     native.NewEngine(native.Intel, native.DefaultCPU()),
	})
	var batches []*Batch
	sim.Run("main", func(p clock.Proc) {
		it := il.Start(p)
		for {
			b, ok := it.Next(p)
			if !ok {
				break
			}
			batches = append(batches, b)
		}
	})
	return batches
}

func TestIterableDeliversEverySampleOnce(t *testing.T) {
	batches := runIterableEpoch(t, 97, 10, 3, nil)
	seen := map[int]bool{}
	total := 0
	for _, b := range batches {
		for _, idx := range b.Indices {
			if seen[idx] {
				t.Fatalf("index %d delivered twice", idx)
			}
			seen[idx] = true
			total++
		}
	}
	if total != 97 {
		t.Fatalf("delivered %d samples, want 97", total)
	}
}

func TestIterableConsumptionInTokenOrder(t *testing.T) {
	batches := runIterableEpoch(t, 120, 8, 4, nil)
	last := -1
	for _, b := range batches {
		if b.ID <= last {
			t.Fatalf("batch %d consumed after %d", b.ID, last)
		}
		last = b.ID
	}
}

func TestIterableShardingByWorker(t *testing.T) {
	// Worker w yields indices w, w+n, w+2n... — each batch's indices must
	// share a residue class.
	batches := runIterableEpoch(t, 90, 5, 3, nil)
	for _, b := range batches {
		res := b.Indices[0] % 3
		for _, idx := range b.Indices {
			if idx%3 != res {
				t.Fatalf("batch %d mixes shards: %v", b.ID, b.Indices)
			}
		}
		if res != b.WorkerID {
			t.Fatalf("batch %d from worker %d carries shard %d", b.ID, b.WorkerID, res)
		}
	}
}

func TestIterableUnevenShards(t *testing.T) {
	// 11 samples over 4 workers: shards of 3,3,3,2 — partial batches and
	// early worker exhaustion must all resolve without deadlock.
	batches := runIterableEpoch(t, 11, 2, 4, nil)
	total := 0
	for _, b := range batches {
		total += b.Size()
	}
	if total != 11 {
		t.Fatalf("delivered %d samples, want 11", total)
	}
}

func TestIterableSingleWorkerDegenerate(t *testing.T) {
	batches := runIterableEpoch(t, 7, 3, 1, nil)
	if len(batches) != 3 {
		t.Fatalf("%d batches, want 3 (3+3+1)", len(batches))
	}
	if batches[2].Size() != 1 {
		t.Fatalf("last batch size %d", batches[2].Size())
	}
}

func TestIterableMoreWorkersThanSamples(t *testing.T) {
	batches := runIterableEpoch(t, 3, 4, 8, nil)
	total := 0
	for _, b := range batches {
		total += b.Size()
	}
	if total != 3 {
		t.Fatalf("delivered %d samples, want 3", total)
	}
}

func TestIterableHooksFireLikeMapStyle(t *testing.T) {
	var pre, wait, cons, ops int
	hooks := &Hooks{
		OnOp:                func(pid, batchID, sample int, op string, start time.Time, dur time.Duration) { ops++ },
		OnBatchPreprocessed: func(pid, batchID int, start time.Time, dur time.Duration) { pre++ },
		OnBatchWait:         func(pid, batchID int, start time.Time, dur time.Duration) { wait++ },
		OnBatchConsumed:     func(pid, batchID int, start time.Time, dur time.Duration) { cons++ },
	}
	batches := runIterableEpoch(t, 40, 5, 2, hooks)
	if pre != len(batches) || cons != len(batches) {
		t.Fatalf("pre=%d cons=%d, batches=%d", pre, cons, len(batches))
	}
	if wait < len(batches) {
		t.Fatalf("wait hooks %d < %d", wait, len(batches))
	}
	// 40 samples x 5 transforms + collates.
	if ops != 40*5+len(batches) {
		t.Fatalf("op hooks %d", ops)
	}
}

func TestIterableDropLast(t *testing.T) {
	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(11, 1))
	stream := &ImageStream{Folder: NewImageFolder(ds, icCompose(nil))}
	il := NewIterableLoader(sim, stream, Config{
		BatchSize: 2, NumWorkers: 2, DropLast: true, Seed: 1,
		Mode: Simulated, Engine: native.NewEngine(native.Intel, native.DefaultCPU()),
	})
	total := 0
	sim.Run("main", func(p clock.Proc) {
		it := il.Start(p)
		for {
			b, ok := it.Next(p)
			if !ok {
				break
			}
			if b.Size() != 2 {
				t.Errorf("DropLast leaked a partial batch of %d", b.Size())
			}
			total += b.Size()
		}
	})
	// Shards are 6 and 5 samples; DropLast keeps 3+2 full batches.
	if total != 10 {
		t.Fatalf("delivered %d samples, want 10", total)
	}
}

func TestIterableStartTwicePanics(t *testing.T) {
	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(4, 1))
	il := NewIterableLoader(sim, &ImageStream{Folder: NewImageFolder(ds, icCompose(nil))}, Config{
		BatchSize: 2, NumWorkers: 1, Mode: Simulated,
		Engine: native.NewEngine(native.Intel, native.DefaultCPU()),
	})
	panicked := false
	sim.Run("main", func(p clock.Proc) {
		it := il.Start(p)
		func() {
			defer func() { panicked = recover() != nil }()
			il.Start(p)
		}()
		// Drain the epoch so the workers terminate cleanly.
		for {
			if _, ok := it.Next(p); !ok {
				break
			}
		}
	})
	if !panicked {
		t.Fatal("expected second Start to panic")
	}
}

// batchSpans records, per batch id, the Collate span and the [T1] span a
// loader logs.
type batchSpans struct {
	collate, t1 map[int]time.Duration
}

func (s *batchSpans) hooks(perLogCost time.Duration) *Hooks {
	s.collate, s.t1 = map[int]time.Duration{}, map[int]time.Duration{}
	return &Hooks{
		OnOp: func(pid, batchID, sample int, op string, start time.Time, dur time.Duration) {
			if op == "Collate" {
				s.collate[batchID] = dur
			}
		},
		OnBatchPreprocessed: func(pid, batchID int, start time.Time, dur time.Duration) { s.t1[batchID] = dur },
		PerLogCost:          perLogCost,
	}
}

// TestIterableCollateSpanMatchesMapStyle is the regression test for the
// stream loader's [T3] collate record: it used to be logged after the fact
// with a zero duration and without the per-record log cost, so collate time
// vanished from every stream-dataset trace. One worker, unshuffled, the
// stream's batch b holds the same samples as the map-style loader's batch b,
// and under the sim clock both must log the same Collate and [T1] spans —
// the [T1] span covers the log cost of every record inside it.
func TestIterableCollateSpanMatchesMapStyle(t *testing.T) {
	const n, batch, logCost = 40, 5, 30 * time.Microsecond
	var stream, mapStyle, free batchSpans
	runIterableEpoch(t, n, batch, 1, stream.hooks(logCost))
	runIterableEpoch(t, n, batch, 1, free.hooks(0))
	sim, dl := simLoader(t, n, batch, 1, mapStyle.hooks(logCost))
	runEpoch(sim, dl)

	if len(stream.collate) != n/batch {
		t.Fatalf("stream loader logged %d Collate spans, want %d", len(stream.collate), n/batch)
	}
	for b := 0; b < n/batch; b++ {
		if stream.collate[b] <= 0 {
			t.Fatalf("batch %d: Collate span has duration %v, want > 0", b, stream.collate[b])
		}
		if stream.collate[b] != mapStyle.collate[b] {
			t.Fatalf("batch %d: Collate span %v, map-style loader logs %v", b, stream.collate[b], mapStyle.collate[b])
		}
		if stream.t1[b] != mapStyle.t1[b] {
			t.Fatalf("batch %d: [T1] span %v, map-style loader logs %v", b, stream.t1[b], mapStyle.t1[b])
		}
		// 5 transforms per sample plus the collate record.
		if got, want := stream.t1[b]-free.t1[b], (batch*5+1)*logCost; got != want {
			t.Fatalf("batch %d: PerLogCost added %v to [T1], want %v", b, got, want)
		}
	}
}
