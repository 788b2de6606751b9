package pipeline

import (
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/native"
	"lotus/internal/tensor"
)

// icCompose builds the paper's image-classification transform chain.
func icCompose(hooks *Hooks) *Compose {
	c := NewCompose(
		&Loader{IO: data.DefaultIO()},
		&RandomResizedCrop{Size: 224},
		&RandomHorizontalFlip{},
		&ToTensor{},
		&Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
	)
	c.Hooks = hooks
	return c
}

func simLoader(t *testing.T, n, batch, workers int, hooks *Hooks) (*clock.Sim, *DataLoader) {
	t.Helper()
	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(n, 1))
	folder := NewImageFolder(ds, icCompose(hooks))
	dl := NewDataLoader(sim, folder, Config{
		BatchSize:  batch,
		NumWorkers: workers,
		Seed:       1,
		Hooks:      hooks,
		Mode:       Simulated,
		Engine:     native.NewEngine(native.Intel, native.DefaultCPU()),
	})
	return sim, dl
}

func runEpoch(sim *clock.Sim, dl *DataLoader) (batches []*Batch, ooo int) {
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			b, ok := it.Next(p)
			if !ok {
				break
			}
			batches = append(batches, b)
		}
		ooo = it.OOOEvents
	})
	return batches, ooo
}

func TestEpochDeliversAllBatchesInOrder(t *testing.T) {
	sim, dl := simLoader(t, 103, 10, 4, nil)
	batches, _ := runEpoch(sim, dl)
	if len(batches) != 11 {
		t.Fatalf("got %d batches, want 11 (103/10 with partial last)", len(batches))
	}
	for i, b := range batches {
		if b.ID != i {
			t.Fatalf("batch %d has ID %d — main must consume in order", i, b.ID)
		}
	}
	if got := batches[10].Size(); got != 3 {
		t.Fatalf("last batch size %d, want 3", got)
	}
	// Every dataset index appears exactly once across the epoch.
	seen := make(map[int]bool)
	for _, b := range batches {
		for _, idx := range b.Indices {
			if seen[idx] {
				t.Fatalf("index %d delivered twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 103 {
		t.Fatalf("delivered %d distinct indices, want 103", len(seen))
	}
}

func TestDropLast(t *testing.T) {
	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(25, 1))
	dl := NewDataLoader(sim, NewImageFolder(ds, icCompose(nil)), Config{
		BatchSize: 10, NumWorkers: 2, DropLast: true, Seed: 1,
		Mode: Simulated, Engine: native.NewEngine(native.Intel, native.DefaultCPU()),
	})
	if dl.NumBatches() != 2 {
		t.Fatalf("NumBatches = %d, want 2 with DropLast", dl.NumBatches())
	}
}

func TestShuffleIsDeterministicPermutation(t *testing.T) {
	mk := func() []int {
		sim := clock.NewSim()
		ds := data.NewImageDataset(data.ImageNetConfig(40, 1))
		dl := NewDataLoader(sim, NewImageFolder(ds, icCompose(nil)), Config{
			BatchSize: 8, NumWorkers: 2, Shuffle: true, Seed: 99,
			Mode: Simulated, Engine: native.NewEngine(native.Intel, native.DefaultCPU()),
		})
		batches, _ := runEpoch(sim, dl)
		var order []int
		for _, b := range batches {
			order = append(order, b.Indices...)
		}
		return order
	}
	a, b := mk(), mk()
	identity := true
	seen := make(map[int]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shuffle not deterministic for fixed seed")
		}
		if a[i] != i {
			identity = false
		}
		seen[a[i]] = true
	}
	if identity {
		t.Fatal("shuffle left indices in identity order")
	}
	if len(seen) != 40 {
		t.Fatal("shuffle dropped or duplicated indices")
	}
}

func TestHooksFireWithCorrectShape(t *testing.T) {
	type opRec struct {
		pid, batch int
		op         string
		dur        time.Duration
	}
	var ops []opRec
	var pre, wait, consumed int
	hooks := &Hooks{
		OnOp: func(pid, batchID, sample int, op string, start time.Time, dur time.Duration) {
			ops = append(ops, opRec{pid, batchID, op, dur})
		},
		OnBatchPreprocessed: func(pid, batchID int, start time.Time, dur time.Duration) { pre++ },
		OnBatchWait:         func(pid, batchID int, start time.Time, dur time.Duration) { wait++ },
		OnBatchConsumed:     func(pid, batchID int, start time.Time, dur time.Duration) { consumed++ },
	}
	sim, dl := simLoader(t, 20, 5, 2, hooks)
	runEpoch(sim, dl)

	if pre != 4 || wait != 4 || consumed != 4 {
		t.Fatalf("batch hooks fired (pre=%d wait=%d consumed=%d), want 4 each", pre, wait, consumed)
	}
	// 20 samples x 5 transforms + 4 collates.
	wantOps := 20*5 + 4
	if len(ops) != wantOps {
		t.Fatalf("op hook fired %d times, want %d", len(ops), wantOps)
	}
	perOp := map[string]int{}
	collates := 0
	for _, o := range ops {
		perOp[o.op]++
		if o.op == "Collate" {
			collates++
			if o.pid < WorkerPID(0) || o.pid > WorkerPID(1) {
				t.Fatalf("collate logged from pid %d, want a worker pid", o.pid)
			}
		}
		if o.dur < 0 {
			t.Fatalf("negative op duration for %s", o.op)
		}
	}
	for _, name := range []string{"Loader", "RandomResizedCrop", "RandomHorizontalFlip", "ToTensor", "Normalize"} {
		if perOp[name] != 20 {
			t.Fatalf("op %s logged %d times, want 20", name, perOp[name])
		}
	}
	if collates != 4 {
		t.Fatalf("collate logged %d times, want 4", collates)
	}
}

func TestLoaderDominatesFlipInSimulatedTime(t *testing.T) {
	durs := map[string]time.Duration{}
	counts := map[string]int{}
	hooks := &Hooks{
		OnOp: func(pid, batchID, sample int, op string, start time.Time, dur time.Duration) {
			durs[op] += dur
			counts[op]++
		},
	}
	sim, dl := simLoader(t, 30, 10, 1, hooks)
	runEpoch(sim, dl)
	avgLoader := durs["Loader"] / time.Duration(counts["Loader"])
	avgFlip := durs["RandomHorizontalFlip"] / time.Duration(counts["RandomHorizontalFlip"])
	if avgLoader < time.Millisecond {
		t.Fatalf("Loader avg %v — expected milliseconds per Table II", avgLoader)
	}
	if avgFlip > 200*time.Microsecond {
		t.Fatalf("Flip avg %v — expected well under a millisecond", avgFlip)
	}
	if avgLoader < 5*avgFlip {
		t.Fatalf("Loader (%v) should dominate flip (%v)", avgLoader, avgFlip)
	}
}

func TestOutOfOrderArrivalsWaitIsMicrosecond(t *testing.T) {
	// With several workers and highly variable per-batch cost, some batches
	// arrive out of order; the wait recorded for an already-cached batch
	// must be the paper's 1µs no-wait marker.
	var waits []time.Duration
	hooks := &Hooks{
		OnBatchWait: func(pid, batchID int, start time.Time, dur time.Duration) {
			waits = append(waits, dur)
		},
	}
	sim, dl := simLoader(t, 240, 8, 4, hooks)
	_, ooo := runEpoch(sim, dl)
	if ooo == 0 {
		t.Skip("schedule produced no out-of-order arrivals at this seed")
	}
	micro := 0
	for _, w := range waits {
		if w == time.Microsecond {
			micro++
		}
	}
	if micro == 0 {
		t.Fatal("out-of-order arrivals occurred but no 1µs wait markers were logged")
	}
}

func TestBatchMetadataConsistent(t *testing.T) {
	sim, dl := simLoader(t, 24, 6, 2, nil)
	batches, _ := runEpoch(sim, dl)
	for _, b := range batches {
		if b.WorkerID < 0 || b.WorkerID >= 2 {
			t.Fatalf("batch %d from worker %d", b.ID, b.WorkerID)
		}
		if b.Data == nil || !b.Data.IsMeta() {
			t.Fatalf("simulated batch %d should carry a meta tensor", b.ID)
		}
		want := []int{6, 3, 224, 224}
		for i, d := range want {
			if b.Data.Shape[i] != d {
				t.Fatalf("batch %d shape %v, want %v", b.ID, b.Data.Shape, want)
			}
		}
		if b.PreprocessedAt.Before(clock.Epoch) {
			t.Fatalf("batch %d has zero PreprocessedAt", b.ID)
		}
	}
}

func TestPerLogCostChargesTime(t *testing.T) {
	run := func(hooks *Hooks) time.Duration {
		sim, dl := simLoader(t, 40, 10, 2, hooks)
		runEpoch(sim, dl)
		return sim.Elapsed()
	}
	quiet := run(nil)
	noop := func(int, int, int, string, time.Time, time.Duration) {}
	costly := run(&Hooks{OnOp: noop, PerLogCost: 200 * time.Microsecond})
	if costly <= quiet {
		t.Fatalf("per-log cost did not lengthen the epoch: %v vs %v", costly, quiet)
	}
}

func TestSampleRandomnessIndependentOfWorkerCount(t *testing.T) {
	// The same sample must make identical random choices (crop geometry,
	// flips) regardless of worker count — ensured by index-derived RNG.
	// Durations legitimately differ (contention), so compare the decision:
	// an un-flipped sample does no work and logs a zero duration.
	flips := func(workers int) map[int]bool {
		out := map[int]bool{}
		hooks := &Hooks{
			OnOp: func(pid, batchID, sample int, op string, start time.Time, dur time.Duration) {
				if op == "RandomHorizontalFlip" {
					out[sample] = dur > 0
				}
			},
		}
		sim, dl := simLoader(t, 30, 5, workers, hooks)
		runEpoch(sim, dl)
		return out
	}
	one := flips(1)
	three := flips(3)
	flipped := 0
	for idx, f := range one {
		if three[idx] != f {
			t.Fatalf("sample %d flip decision differs across worker counts", idx)
		}
		if f {
			flipped++
		}
	}
	if flipped == 0 || flipped == len(one) {
		t.Fatalf("flip decisions degenerate: %d/%d flipped", flipped, len(one))
	}
}

func TestRealModeEpochProducesRealTensors(t *testing.T) {
	clk := clock.NewReal()
	ds := data.NewImageDataset(data.ImageConfig{
		Name: "tiny", N: 6, MeanFileKB: 20, StdFileKB: 5, MinFileKB: 10, MaxFileKB: 40,
		CompressionRatio: 10, Classes: 4, Seed: 3,
		IO: data.IOModel{BaseLatency: 0, BandwidthMBps: 0},
	})
	c := NewCompose(
		&Loader{IO: ds.IO},
		&RandomResizedCrop{Size: 32},
		&RandomHorizontalFlip{},
		&ToTensor{},
		&Normalize{Mean: []float32{0.5, 0.5, 0.5}, Std: []float32{0.25, 0.25, 0.25}},
	)
	dl := NewDataLoader(clk, NewImageFolder(ds, c), Config{
		BatchSize: 3, NumWorkers: 2, Seed: 1, Mode: RealData, MaterializeDim: 64,
	})
	var batches []*Batch
	clk.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			b, ok := it.Next(p)
			if !ok {
				break
			}
			batches = append(batches, b)
		}
	})
	if len(batches) != 2 {
		t.Fatalf("got %d batches", len(batches))
	}
	for _, b := range batches {
		if b.Data.IsMeta() {
			t.Fatal("real-mode batch carries no data")
		}
		if b.Data.Dtype != tensor.Float32 {
			t.Fatalf("batch dtype %v", b.Data.Dtype)
		}
		want := []int{3, 3, 32, 32}
		for i, d := range want {
			if b.Data.Shape[i] != d {
				t.Fatalf("shape %v, want %v", b.Data.Shape, want)
			}
		}
	}
}

func TestISVolumePipelineSim(t *testing.T) {
	sim := clock.NewSim()
	vds := data.NewVolumeDataset(data.Kits19Config(8, 2))
	c := NewCompose(
		&VolumeLoader{IO: vds.IO},
		&RandBalancedCrop{Patch: [3]int{128, 128, 128}, OversampleP: 0.4},
		&RandomFlip{},
		&Cast{},
		&RandomBrightnessAugmentation{},
		&GaussianNoise{},
	)
	durs := map[string]time.Duration{}
	counts := map[string]int{}
	hooks := &Hooks{OnOp: func(pid, batchID, sample int, op string, start time.Time, dur time.Duration) {
		durs[op] += dur
		counts[op]++
	}}
	c.Hooks = hooks
	dl := NewDataLoader(sim, NewVolumeFolder(vds, c), Config{
		BatchSize: 2, NumWorkers: 2, Seed: 4, Hooks: hooks,
		Mode: Simulated, Engine: native.NewEngine(native.Intel, native.DefaultCPU()),
	})
	batches, _ := runEpoch(sim, dl)
	if len(batches) != 4 {
		t.Fatalf("got %d batches", len(batches))
	}
	if counts["Loader"] != 8 || counts["RandBalancedCrop"] != 8 {
		t.Fatalf("op counts %v", counts)
	}
	avgLoad := durs["Loader"] / time.Duration(counts["Loader"])
	avgCast := durs["Cast"] / time.Duration(counts["Cast"])
	if avgLoad < 10*time.Millisecond {
		t.Fatalf("IS Loader avg %v — kits19-like loads should take tens of ms", avgLoad)
	}
	if avgCast >= avgLoad {
		t.Fatalf("Cast (%v) should be much cheaper than Loader (%v)", avgCast, avgLoad)
	}
}

// GroundTruth maps each transform name to its kernel set: the oracle a
// reconstructed LotusMap mapping is checked against.
func (c *Compose) GroundTruth() map[string][]string {
	out := make(map[string][]string, len(c.Transforms))
	for _, t := range c.Transforms {
		out[t.Name()] = append([]string(nil), t.Kernels()...)
	}
	return out
}

func TestGroundTruthCoversAllOps(t *testing.T) {
	c := icCompose(nil)
	gt := c.GroundTruth()
	for _, name := range c.Names() {
		if len(gt[name]) == 0 {
			t.Fatalf("no ground-truth kernels for op %s", name)
		}
	}
	found := false
	for _, k := range gt["Loader"] {
		if k == "decode_mcu" {
			found = true
		}
	}
	if !found {
		t.Fatal("Loader ground truth must include decode_mcu")
	}
}

func TestConfigValidation(t *testing.T) {
	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(4, 1))
	for _, cfg := range []Config{
		{BatchSize: 0, NumWorkers: 1},
		{BatchSize: 2, NumWorkers: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v should panic", cfg)
				}
			}()
			NewDataLoader(sim, NewImageFolder(ds, icCompose(nil)), cfg)
		}()
	}
	// Zero workers means "auto", not a panic: the loader runs the default.
	dl := NewDataLoader(sim, NewImageFolder(ds, icCompose(nil)), Config{BatchSize: 2})
	if got := dl.cfg.NumWorkers; got != DefaultAutoWorkers {
		t.Fatalf("NumWorkers=0 should mean auto (%d workers), got %d", DefaultAutoWorkers, got)
	}
}
