package lotusmap

import (
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/core/trace"
	"lotus/internal/data"
	"lotus/internal/hwsim"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

// tracedEpoch runs a small IC epoch with both a native recording and
// in-memory LotusTrace records, returning everything attribution needs.
func tracedEpoch(t *testing.T, workers int) (*native.Engine, *native.Recording, []trace.Record, []string, hwsim.TimeRange) {
	t.Helper()
	engine := native.NewEngine(native.Intel)
	rec := native.NewRecording()
	engine.Attach(rec)

	var records []trace.Record
	hooks := &pipeline.Hooks{
		OnOp: func(pid, batchID, sampleIndex int, op string, start time.Time, dur time.Duration) {
			records = append(records, trace.Record{Kind: trace.KindOp, PID: pid, BatchID: batchID, SampleIndex: sampleIndex, Op: op, Start: start, Dur: dur})
		},
	}

	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(120, 1))
	c := pipeline.NewCompose(
		&pipeline.Loader{IO: data.DefaultIO()},
		&pipeline.RandomResizedCrop{Size: 224},
		&pipeline.RandomHorizontalFlip{},
		&pipeline.ToTensor{},
		&pipeline.Normalize{Mean: []float32{0.5, 0.5, 0.5}, Std: []float32{0.2, 0.2, 0.2}},
	)
	c.Hooks = hooks
	dl := pipeline.NewDataLoader(sim, pipeline.NewImageFolder(ds, c), pipeline.Config{
		BatchSize: 12, NumWorkers: workers, Seed: 1, Hooks: hooks,
		Mode: pipeline.Simulated, Engine: engine,
	})
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				break
			}
		}
	})
	engine.Detach()
	window := hwsim.TimeRange{Start: clock.Epoch, End: clock.Epoch.Add(sim.Elapsed())}
	ops := []string{"Loader", "RandomResizedCrop", "RandomHorizontalFlip", "ToTensor", "Normalize", "Collate"}
	return engine, rec, records, ops, window
}

func TestTrueOpCountersCoverAllWork(t *testing.T) {
	_, rec, records, _, _ := tracedEpoch(t, 2)
	truth := TrueOpCounters(rec, records)

	if truth["Loader"].CPUTime == 0 || truth["RandomResizedCrop"].CPUTime == 0 {
		t.Fatalf("oracle missing major ops: %v", truth)
	}
	// Every invocation belongs to exactly one op (or ""): per-op CPU sums to
	// the recording's total modeled CPU time.
	var total, sum time.Duration
	for _, th := range rec.Threads() {
		for _, inv := range rec.Timeline(th) {
			total += inv.Dur
		}
	}
	for _, c := range truth {
		sum += c.CPUTime
	}
	if diff := sum - total; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("oracle CPU %v != recorded %v", sum, total)
	}
	// Collate is a batch-level op but still logged; its kernels must be
	// attributed to it, not lost.
	if truth["Collate"].CPUTime == 0 {
		t.Fatal("collate work not attributed by the oracle")
	}
	if unassigned := truth[""]; unassigned.CPUTime > total/100 {
		t.Fatalf("%v of kernel time outside any op span", unassigned.CPUTime)
	}
}

func TestRefinedAttributionBeatsBasicOnSharedKernels(t *testing.T) {
	engine, rec, records, ops, window := tracedEpoch(t, 2)

	// Reconstruct the mapping including collation.
	spec := pipeline.NewCompose(
		&pipeline.Loader{IO: data.DefaultIO()},
		&pipeline.RandomResizedCrop{Size: 224},
		&pipeline.RandomHorizontalFlip{},
		&pipeline.ToTensor{},
		&pipeline.Normalize{Mean: []float32{0.5, 0.5, 0.5}, Std: []float32{0.2, 0.2, 0.2}},
		&pipeline.CollateN{N: 12},
	)
	cfg := DefaultConfig(hwsim.UProfSampler(5))
	proto := pipeline.Sample{Index: 0, FileBytes: 300 << 10, Seed: 99, Width: 1000, Height: 1000, Channels: 3}
	mapping := MapPipeline(engine, spec, proto, cfg)

	// Function-granularity profile of the whole epoch.
	sampler := hwsim.UProfSampler(6)
	sampler.NoiseProb = 0
	samples := hwsim.NewSampler(sampler).Run(rec, []hwsim.TimeRange{window})
	report := hwsim.BuildReport(samples, "uprof", native.Intel)

	weights := trace.Analyze(records).OpWeights(ops)
	truth := TrueOpCounters(rec, records)

	basic := Attribute(report, mapping, weights)
	refined := AttributeRefined(report, mapping, weights)

	eBasic := AttributionError(basic, truth)
	eRefined := AttributionError(refined, truth)
	t.Logf("attribution error: basic=%.3f refined=%.3f", eBasic, eRefined)
	if eRefined > eBasic+0.02 {
		t.Fatalf("refined attribution (%.3f) should not be worse than basic (%.3f)", eRefined, eBasic)
	}
	if eBasic > 0.8 {
		t.Fatalf("basic attribution error %.3f implausibly high — mapping or weights broken", eBasic)
	}
}

func TestAttributionErrorMetric(t *testing.T) {
	truth := map[string]hwsim.Counters{
		"A": {CPUTime: 100 * time.Millisecond},
		"B": {CPUTime: 100 * time.Millisecond},
	}
	perfect := &Attribution{PerOp: map[string]hwsim.Counters{
		"A": {CPUTime: 100 * time.Millisecond},
		"B": {CPUTime: 100 * time.Millisecond},
	}}
	if e := AttributionError(perfect, truth); e != 0 {
		t.Fatalf("perfect attribution error %v", e)
	}
	swapped := &Attribution{PerOp: map[string]hwsim.Counters{
		"A": {CPUTime: 200 * time.Millisecond},
		"B": {},
	}}
	if e := AttributionError(swapped, truth); e != 1 {
		t.Fatalf("fully-misattributed error %v, want 1", e)
	}
	if e := AttributionError(&Attribution{PerOp: map[string]hwsim.Counters{}}, nil); e != 0 {
		t.Fatalf("empty error %v", e)
	}
}

func TestOpAtBoundaries(t *testing.T) {
	spans := []opSpan{
		{start: clock.Epoch, end: clock.Epoch.Add(time.Millisecond), op: "A"},
		{start: clock.Epoch.Add(2 * time.Millisecond), end: clock.Epoch.Add(3 * time.Millisecond), op: "B"},
	}
	cases := []struct {
		at   time.Duration
		want string
	}{
		{0, "A"},
		{time.Millisecond, "A"}, // inclusive end
		{1500 * time.Microsecond, ""},
		{2500 * time.Microsecond, "B"},
		{10 * time.Millisecond, ""},
	}
	for _, c := range cases {
		if got := opAt(spans, clock.Epoch.Add(c.at)); got != c.want {
			t.Errorf("opAt(+%v) = %q, want %q", c.at, got, c.want)
		}
	}
}
