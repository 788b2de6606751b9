package pipeline

import (
	"slices"
	"strings"
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/faultinject"
	"lotus/internal/tensor"
)

// icChain is the IC plan as the workloads package builds it, over a Loader
// reading with io.
func icChain(io data.IOModel, hooks *Hooks) *Compose {
	c := NewCompose(
		&Loader{IO: io},
		&RandomResizedCrop{Size: 224},
		&RandomHorizontalFlip{},
		&ToTensor{},
		&Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
	)
	c.Hooks = hooks
	return c
}

// readAheadDataset is an ImageNet-shaped dataset reading with io.
func readAheadDataset(n int, io data.IOModel) *data.ImageDataset {
	cfg := data.ImageNetConfig(n, 5)
	cfg.IO = io
	return data.NewImageDataset(cfg)
}

// loaderRecords collects the Loader's per-sample op records.
type loaderRecords map[int]time.Duration

func (r loaderRecords) hooks() *Hooks {
	return &Hooks{OnOp: func(_, _, index int, op string, _ time.Time, dur time.Duration) {
		if op == "Loader" {
			r[index] = dur
		}
	}}
}

// timedBatch runs one batch of w on a fresh real clock, as the serving
// plane does, and returns how long Run took.
func timedBatch(t testing.TB, w *BatchWorker, indices []int, dst CollateDst) time.Duration {
	var d time.Duration
	var err error
	clock.NewReal().Run("batch", func(p clock.Proc) {
		start := time.Now()
		_, err = w.Run(p, 0, indices, dst)
		d = time.Since(start)
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// readModeled is the summed modeled latency of folder's reads so far.
func readModeled(folder *ImageFolder) time.Duration {
	return time.Duration(folder.DecodeStats().ReadModeledMS * 1e6)
}

// TestReadAheadKeepsTheDevice: issuing a batch's reads at its start changes
// when they are issued, never the device — the same latencies, one read in
// flight per worker, a batch no shorter than its reads.
func TestReadAheadKeepsTheDevice(t *testing.T) {
	t.Run("sim clock: the synchronous schedule", func(t *testing.T) {
		const n, batch = 24, 6
		spec := faultinject.Spec{Seed: 3, ReadStallNth: 4, ReadStall: 7 * time.Millisecond, ReadErrorNth: 9}
		ds := readAheadDataset(n, data.DefaultIO())

		// The synchronous model: each sample read and transformed on its own,
		// outside any batch, so every read is issued when asked.
		wantOps := loaderRecords{}
		wantSpan := make([]time.Duration, n)
		wantErr := make([]bool, n)
		ref := faultinject.New(spec)
		sim := clock.NewSim()
		sim.Run("ref", func(p clock.Proc) {
			folder := NewImageFolder(ds, icChain(ds.IO, wantOps.hooks()))
			ctx := &Ctx{Proc: p, Mode: RealData, Seed: 1, MaterializeDim: 32, Faults: ref}
			for i := 0; i < n; i++ {
				start := p.Now()
				func() {
					defer func() { wantErr[i] = recover() != nil }()
					folder.GetItem(ctx, 0, 0, i).Image.Release()
				}()
				wantSpan[i] = p.Now().Sub(start)
			}
		})

		gotOps := loaderRecords{}
		got := faultinject.New(spec)
		var spans []time.Duration
		hooks := &Hooks{OnBatchPreprocessed: func(_, _ int, _ time.Time, dur time.Duration) { spans = append(spans, dur) }}
		w := NewBatchWorker(0, NewImageFolder(ds, icChain(ds.IO, gotOps.hooks())),
			Config{Mode: RealData, Seed: 1, MaterializeDim: 32, Faults: got, Hooks: hooks})
		sim = clock.NewSim()
		failed := 0
		sim.Run("worker", func(p clock.Proc) {
			for b := 0; b < n/batch; b++ {
				var indices []int
				var want time.Duration
				fails := false
				for i := b * batch; i < (b+1)*batch; i++ {
					indices = append(indices, i)
					if !fails {
						want += wantSpan[i]
						fails = wantErr[i]
					}
				}
				start := p.Now()
				_, err := w.Run(p, b, indices, nil)
				if fails {
					failed++
					if err == nil || !strings.Contains(err.Error(), faultinject.ErrInjectedRead.Error()) {
						t.Errorf("batch %d: err %v, want the injected read error", b, err)
						return
					}
					if span := p.Now().Sub(start); span != want {
						t.Errorf("failed batch %d took %v, want %v: its reads up to the failing one", b, span, want)
						return
					}
					continue
				}
				if err != nil {
					t.Errorf("batch %d: %v", b, err)
					return
				}
				if span := spans[len(spans)-1]; span != want {
					t.Errorf("batch %d took %v, want %v: the sum of its reads", b, span, want)
					return
				}
			}
		})
		if t.Failed() {
			return
		}
		// A failed batch reads nothing after its failing sample.
		if failed == 0 || got.Counts().ReadStalls == 0 || len(gotOps) < n-failed*batch {
			t.Fatalf("%d failed batches, %d Loader records, %+v: want both fault classes to fire", failed, len(gotOps), got.Counts())
		}
		for i, d := range gotOps {
			if wantOps[i] != d {
				t.Fatalf("sample %d: Loader record %v in a batch, %v on its own", i, d, wantOps[i])
			}
		}
	})

	t.Run("real clock: a batch lasts at least its reads", func(t *testing.T) {
		const k, lat = 8, 3 * time.Millisecond
		ds := readAheadDataset(k, data.IOModel{BaseLatency: lat})
		w := NewBatchWorker(0, NewImageFolder(ds, icChain(ds.IO, nil)), Config{Mode: RealData, Seed: 1, MaterializeDim: 32})
		indices := []int{0, 1, 2, 3, 4, 5, 6, 7}
		for i := 0; i < 3; i++ {
			if d := timedBatch(t, w, indices, nil); d < k*lat {
				t.Fatalf("batch of %d reads of %v took %v: reads overlapped each other", k, lat, d)
			}
		}
	})

	t.Run("real clock: reads hide behind decodes", func(t *testing.T) {
		io, free := readAheadPair(32)
		// A test shares the host with other packages' tests, and a busy core
		// delays a worker's wake-up from its first read; the check is made on
		// up to three rounds of pairs and holds if one round meets it. With
		// reads issued one at a time every round misses by about the reads
		// less their limit.
		var extra, without time.Duration
		for round := 0; round < 3 && (round == 0 || extra > overlapLimit(io, without)); round++ {
			var c overlapCosts
			overlapPairs(t, io, free, 5, &c)
			extra, without = median(c.extra), median(c.without)
		}
		limit := overlapLimit(io, without)
		if raceEnabled {
			// The race detector's slowdown swamps the 25 % allowance; the
			// plain test run and BenchmarkLoaderOverlap judge it.
			t.Logf("under -race, not judged: a batch with %v of reads cost %v over the same batch without (%v); the bound is %v",
				io.reads, extra, without, limit)
			return
		}
		if extra > limit {
			t.Fatalf("a batch with %v of reads cost %v over the same batch without (%v): want <= %v, the reads' overhang plus 25%% of them",
				io.reads, extra, without, limit)
		}
	})

	t.Run("a direct GetItem waits its whole read", func(t *testing.T) {
		ds := readAheadDataset(4, data.DefaultIO())
		folder := NewImageFolder(ds, icChain(ds.IO, nil))
		clock.NewSim().Run("direct", func(p clock.Proc) {
			ctx := &Ctx{Proc: p, Mode: RealData, Seed: 1, MaterializeDim: 32}
			for i := 0; i < ds.Len(); i++ {
				before, start := readModeled(folder), p.Now()
				folder.GetItem(ctx, 0, 0, i).Image.Release()
				d := readModeled(folder) - before
				if waited := p.Now().Sub(start); d <= 0 || waited != d {
					t.Errorf("sample %d: waited %v for a read of %v", i, waited, d)
					return
				}
			}
		})
		if st := folder.DecodeStats(); st.ReadWaitedMS != st.ReadModeledMS {
			t.Fatalf("decode stats %+v: a read outside a batch is waited in full", st)
		}
	})
}

// readAheadSide is one side of an overlap measurement: a BatchWorker over an
// IC plan at the served cap, one batch's indices with their corpus files
// already rendered, and a reused buffer the batch's pixels are collated
// into, as the serving plane collates into a frame.
type readAheadSide struct {
	w       *BatchWorker
	folder  *ImageFolder
	indices []int
	pixels  []uint8
	// first and reads are the modeled latency of the batch's first read and
	// of all of them (zero without I/O).
	first, reads time.Duration
}

// readAheadPair builds the two sides over one k-sample dataset: reading
// with data.DefaultIO and with no modeled I/O at all.
func readAheadPair(k int) (io, free *readAheadSide) {
	ds := readAheadDataset(k, data.DefaultIO())
	side := func(m data.IOModel) *readAheadSide {
		s := &readAheadSide{folder: NewImageFolder(ds, icChain(m, nil)), pixels: make([]uint8, k*224*224*3)}
		s.w = NewBatchWorker(0, s.folder, Config{Mode: RealData, Seed: 1, MaterializeDim: 256})
		for i := 0; i < k; i++ {
			s.indices = append(s.indices, i)
		}
		// One untimed pass renders the corpus and measures the reads: sample
		// 0 alone, then the whole batch.
		clock.NewSim().Run("measure", func(p clock.Proc) {
			ctx := &Ctx{Proc: p, Mode: RealData, Seed: 1, MaterializeDim: 256}
			s.folder.GetItem(ctx, 0, 0, 0).Image.Release()
			s.first = readModeled(s.folder)
			for _, i := range s.indices {
				s.folder.GetItem(ctx, 0, 0, i).Image.Release()
			}
			s.reads = readModeled(s.folder) - s.first
		})
		return s
	}
	return side(ds.IO), side(data.IOModel{})
}

// run times one batch of the side.
func (s *readAheadSide) run(t testing.TB) time.Duration {
	return timedBatch(t, s.w, s.indices, func(dtype tensor.DType, shape []int) *tensor.Tensor {
		if dtype != tensor.Uint8 {
			return nil
		}
		return tensor.FromU8(s.pixels, shape...)
	})
}

// overlapPairs times n interleaved pairs of batches, without I/O then with,
// and appends each pair's costs to costs.
func overlapPairs(t testing.TB, io, free *readAheadSide, n int, costs *overlapCosts) {
	for i := 0; i < n; i++ {
		z := free.run(t)
		a := io.run(t)
		costs.withIO = append(costs.withIO, a)
		costs.without = append(costs.without, z)
		costs.extra = append(costs.extra, a-z)
	}
}

// overlapLimit is the most a batch with io's reads may cost over the same
// batch without them, which cost without: the reads' overhang — how far the
// reads, on top of the wait for the first before any decode starts, run past
// the batch's own work, which no overlap can hide — plus a quarter of the
// reads. While the batch outlasts its reads the overhang is 0, and the limit
// is the quarter alone. Reads issued one at a time before each decode cost
// about all of the reads, over the limit by about without less the first
// read and a quarter of the reads.
func overlapLimit(io *readAheadSide, without time.Duration) time.Duration {
	return max(0, io.first+io.reads-without) + io.reads/4
}

// overlapCosts are the batch costs of overlap pairs: each side's, and what
// the batch with I/O cost over its pair's batch without.
type overlapCosts struct{ withIO, without, extra []time.Duration }

// median is the median of xs: a batch that a collection or a preempted core
// lands on is an outlier, not the cost, and a pair's difference cancels the
// host's drift between pairs.
func median(xs []time.Duration) time.Duration {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// TestFreshClockPerBatchKeepsModeledIO: the serving plane runs every batch on
// a new real clock, which used to drop the sub-millisecond pacing debt of
// its modeled reads with the clock. A batch of two 0.41 ms reads and next to
// no compute must still last both reads.
func TestFreshClockPerBatchKeepsModeledIO(t *testing.T) {
	const lat = 410 * time.Microsecond
	ds := data.NewImageDataset(data.ImageConfig{
		Name: "fresh-clock", N: 2, MeanFileKB: 20, StdFileKB: 5, MinFileKB: 10, MaxFileKB: 40,
		CompressionRatio: 10, Classes: 2, Seed: 3, IO: data.IOModel{BaseLatency: lat},
	})
	w := NewBatchWorker(0, NewImageFolder(ds, NewCompose(&Loader{IO: ds.IO}, &RandomResizedCrop{Size: 8}, &ToTensor{})),
		Config{Mode: RealData, Seed: 1, MaterializeDim: 8})
	for i := 0; i < 5; i++ {
		if d := timedBatch(t, w, []int{0, 1}, nil); d < 2*lat {
			t.Fatalf("batch %d of two %v reads took %v", i, lat, d)
		}
	}
}

// BenchmarkLoaderOverlap runs one 32-sample IC batch at the served cap
// through a BatchWorker with data.DefaultIO and with no modeled I/O,
// interleaved five pairs per op, and fails itself unless the batch with I/O
// costs at most the one without plus overlapLimit (the median pair): the
// reads are issued at the batch's start, so all of them that end inside the
// batch's own work hide behind decodes.
func BenchmarkLoaderOverlap(b *testing.B) {
	io, free := readAheadPair(32)
	io.run(b)
	free.run(b)
	var c overlapCosts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overlapPairs(b, io, free, 5, &c)
	}
	b.StopTimer()
	extra := median(c.extra)
	b.ReportMetric(float64(median(c.without).Microseconds()), "zero-io-µs/batch")
	b.ReportMetric(float64(median(c.withIO).Microseconds()), "default-io-µs/batch")
	b.ReportMetric(float64(io.reads.Microseconds()), "modeled-read-µs/batch")
	b.ReportMetric(1-float64(extra)/float64(io.reads), "reads-hidden")
	if b.N < 2 {
		return // too few pairs to judge (the benchmark's own calibration run)
	}
	if limit := overlapLimit(io, median(c.without)); extra > limit {
		b.Fatalf("a batch with %v of modeled reads costs %v over the same batch without I/O (%v), want <= %v, the reads' overhang plus 25%% of them",
			io.reads, extra, median(c.without), limit)
	}
}
