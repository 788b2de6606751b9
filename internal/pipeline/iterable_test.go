package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/faultinject"
	"lotus/internal/native"
	"lotus/internal/tensor"
	"lotus/internal/testutil"
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
		Engine:     native.NewEngine(native.Intel),
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
	if wait != len(batches) {
		t.Fatalf("wait hooks %d, want one per batch (%d)", wait, len(batches))
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
		Mode: Simulated, Engine: native.NewEngine(native.Intel),
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
		Engine: native.NewEngine(native.Intel),
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

// panicStream is an IterableDataset whose worker 0 panics on its first
// sample; the other workers stream forever.
type panicStream struct{}

func (panicStream) Iter(workerID, numWorkers int) SampleIter { return &panicIter{worker: workerID} }

type panicIter struct{ worker, next int }

func (it *panicIter) Next(ctx *Ctx, pid, batchID int) (Sample, bool) {
	if it.worker == 0 {
		panic("boom")
	}
	it.next++
	return Sample{Index: it.next, Tensor: tensor.Meta(tensor.Float32, 1)}, true
}

// TestIterablePanicEndsEpoch: a panic in a worker's stream reaches the
// caller as Iterator.Err, as a failed map-style batch does, and every worker
// exits, so Run returns.
func TestIterablePanicEndsEpoch(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			sim := clock.NewSim()
			il := NewIterableLoader(sim, panicStream{}, Config{
				BatchSize: 2, NumWorkers: workers, Seed: 1, Mode: Simulated,
			})
			var err error
			sim.Run("main", func(p clock.Proc) {
				it := il.Start(p)
				for {
					if _, ok := it.Next(p); !ok {
						break
					}
				}
				err = it.Err()
			})
			if err == nil || !strings.Contains(err.Error(), "worker 0 failed on batch 0: boom") {
				t.Errorf("Err() = %v, want worker 0's panic", err)
			}
		})
	}
}

// runFaultyStream runs one simulated stream epoch of n samples under an
// injector that fails ~1/6 of the blob reads.
func runFaultyStream(t *testing.T, inj *faultinject.Injector, n, batch, workers int, policy ErrorPolicy) (batches []*Batch, skipped []int, err error) {
	t.Helper()
	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(n, 1))
	il := NewIterableLoader(sim, &ImageStream{Folder: NewImageFolder(ds, icCompose(nil))}, Config{
		BatchSize: batch, NumWorkers: workers, Seed: 1, OnError: policy, Faults: inj,
		Mode: Simulated, Engine: native.NewEngine(native.Intel),
	})
	sim.Run("main", func(p clock.Proc) {
		it := il.Start(p)
		for {
			b, ok := it.Next(p)
			if !ok {
				break
			}
			batches = append(batches, b)
		}
		skipped, err = it.Skipped(), it.Err()
	})
	return batches, skipped, err
}

// TestIterableSkipBatchUnderReadErrors: under SkipBatch a stream batch whose
// read fails is skipped, and the stream goes on with the sample after the
// failing one. Each shard's batches are therefore known from the fault
// decisions alone: every other sample is delivered exactly once, and
// Skipped lists one batch per failure.
func TestIterableSkipBatchUnderReadErrors(t *testing.T) {
	const n, batch, workers = 60, 4, 3
	inj := faultinject.New(faultinject.Spec{Seed: 9, ReadErrorNth: 6})
	want, failures := map[int]bool{}, 0
	for w := 0; w < workers; w++ {
		var cur []int
		for i := w; i < n; i += workers {
			if inj.WouldReadError(i) {
				// The failed batch loses the samples drawn before this one.
				failures, cur = failures+1, nil
				continue
			}
			if cur = append(cur, i); len(cur) == batch {
				for _, j := range cur {
					want[j] = true
				}
				cur = nil
			}
		}
		for _, j := range cur { // the shard's partial last batch
			want[j] = true
		}
	}
	if failures == 0 {
		t.Fatal("the spec fails no read; pick another seed")
	}

	batches, skipped, err := runFaultyStream(t, inj, n, batch, workers, SkipBatch)
	if err != nil {
		t.Fatalf("SkipBatch epoch failed: %v", err)
	}
	if len(skipped) != failures {
		t.Errorf("Skipped %v: %d batches, want one per failed read (%d)", skipped, len(skipped), failures)
	}
	got := map[int]bool{}
	for _, b := range batches {
		if slices.Contains(skipped, b.ID) {
			t.Errorf("batch %d both delivered and skipped", b.ID)
		}
		for _, idx := range b.Indices {
			if got[idx] {
				t.Errorf("sample %d delivered twice", idx)
			}
			got[idx] = true
		}
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Errorf("sample %d: delivered %v, want %v", i, got[i], want[i])
		}
	}
}

// TestIterableFailEpochUnderReadErrors: under FailEpoch the first failed
// read ends a stream epoch with the error, and every worker exits.
func TestIterableFailEpochUnderReadErrors(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	inj := faultinject.New(faultinject.Spec{Seed: 9, ReadErrorNth: 6})
	_, _, err := runFaultyStream(t, inj, 60, 4, 3, FailEpoch)
	if err == nil || !strings.Contains(err.Error(), faultinject.ErrInjectedRead.Error()) {
		t.Fatalf("Err() = %v, want the injected read error", err)
	}
}

// TestIterableEpochSaltsBytes: Config.Epoch reaches a stream worker's Ctx, so
// a real-pixel stream's RandomResizedCrop differs between epochs 0 and 1, as
// a DataLoader's does. Epoch 0's collated tensors keep the CRC32Cs the stream
// loader produced before it ran on BatchWorker, so the read-ahead device
// and the tensor tail fused into the collate change no byte. Batches are
// keyed by their first sample: a shard's batches are fixed, their IDs are
// not.
func TestIterableEpochSaltsBytes(t *testing.T) {
	pinned := map[int]uint32{0: 0x70612cd2, 1: 0xdb675cc9, 6: 0x19ee7c61, 7: 0x10b76734, 12: 0x5a686857}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	run := func(epoch int) map[int]uint32 {
		ds := fastRealDataset(13, 3)
		clk := clock.NewReal()
		il := NewIterableLoader(clk, &ImageStream{Folder: NewImageFolder(ds, icCompose(nil))}, Config{
			BatchSize: 3, NumWorkers: 2, Seed: 5, Epoch: epoch, Mode: RealData, MaterializeDim: 64,
		})
		sums := map[int]uint32{}
		clk.Run("main", func(p clock.Proc) {
			it := il.Start(p)
			for {
				b, ok := it.Next(p)
				if !ok {
					if err := it.Err(); err != nil {
						t.Errorf("epoch %d: %v", epoch, err)
					}
					return
				}
				buf := make([]byte, 0, 4*len(b.Data.F32))
				for _, v := range b.Data.F32 {
					buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
				}
				sums[b.Indices[0]] = crc32.Checksum(buf, castagnoli)
			}
		})
		return sums
	}
	e0, e1 := run(0), run(1)
	if len(e0) != len(pinned) || len(e1) != len(pinned) {
		t.Fatalf("epochs delivered %d and %d batches, want %d", len(e0), len(e1), len(pinned))
	}
	for first, want := range pinned {
		if e0[first] != want {
			t.Errorf("epoch 0 batch from sample %d: CRC32C %#08x, pinned %#08x", first, e0[first], want)
		}
		if e1[first] == e0[first] {
			t.Errorf("batch from sample %d: epoch 1 repeats epoch 0's bytes", first)
		}
	}
}

// TestNewIterableLoaderRefusesPlanFields: a stream has no plan to shuffle
// or replace, so the Config fields that act on one panic, as PyTorch
// raises for shuffle with an IterableDataset.
func TestNewIterableLoaderRefusesPlanFields(t *testing.T) {
	ds := data.NewImageDataset(data.ImageNetConfig(4, 1))
	stream := &ImageStream{Folder: NewImageFolder(ds, icCompose(nil))}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"Shuffle", Config{Shuffle: true}},
		{"BatchPlan", Config{BatchPlan: [][]int{{0, 1}}}},
		{"DispatchLeastWork", Config{Dispatch: DispatchLeastWork}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.BatchSize = 2
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.name) {
					t.Errorf("NewIterableLoader with %s: recovered %v, want a panic naming it", tc.name, r)
				}
			}()
			NewIterableLoader(clock.NewSim(), stream, tc.cfg)
		})
	}
}
