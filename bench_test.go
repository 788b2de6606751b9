package lotus_test

// The benchmark harness: one testing.B benchmark per paper table and figure
// (running the corresponding experiment end to end at test scale — the full
// paper-scale pass is `go run ./cmd/lotus-bench`), plus microbenchmarks for
// the substrate pieces whose costs matter to the tool itself (tracer record
// emission, the simulated scheduler, the pixel codecs, the sampler).

import (
	"bytes"
	"io"
	"testing"
	"time"

	"lotus"
	"lotus/internal/clock"
	"lotus/internal/experiments"
	"lotus/internal/hwsim"
	"lotus/internal/imaging"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

// --- one benchmark per paper artifact ---

func benchExperiment(b *testing.B, id string) {
	exp, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := exp.Run(experiments.Small)
		if res.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkTable1Mapping(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkTable2OpStats(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkFig2Traces(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkFig3OutOfOrder(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4Variance(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig5WaitDelay(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6HardwareStudy(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig6AMDHardwareStudy(b *testing.B) { benchExperiment(b, "fig6amd") }
func BenchmarkTable3Overheads(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkTable4Functionality(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkExtensionsStudies(b *testing.B)    { benchExperiment(b, "extensions") }

// --- instrumentation cost (the tool's own overhead claim) ---

// BenchmarkTracerEmit measures the cost of one LotusTrace record emission —
// the quantity behind the paper's "per-log overhead" and Table III's ~0%.
func BenchmarkTracerEmit(b *testing.B) {
	tr := lotus.NewTracer(io.Discard)
	h := tr.Hooks()
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.OnOp(4001, i>>7, i, "RandomResizedCrop", start, time.Millisecond)
	}
}

// BenchmarkTracedEpochOverhead runs the same simulated epoch with and
// without tracing; the reported metric is interesting relative to
// BenchmarkUntracedEpoch.
func BenchmarkTracedEpochOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		tr := lotus.NewTracer(&buf)
		spec := lotus.ICWorkload(512, 1)
		spec.Run(tr.Hooks())
	}
}

func BenchmarkUntracedEpoch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := lotus.ICWorkload(512, 1)
		spec.Run(nil)
	}
}

// --- substrate microbenchmarks ---

func BenchmarkSimClockContextSwitch(b *testing.B) {
	sim := clock.NewSim()
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run("root", func(p clock.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
}

func BenchmarkSimQueueHandoff(b *testing.B) {
	sim := clock.NewSim()
	q := clock.NewQueue[int](sim, 8)
	b.ResetTimer()
	sim.Run("root", func(p clock.Proc) {
		p.Go("producer", func(p clock.Proc) {
			for i := 0; i < b.N; i++ {
				q.Put(p, i)
			}
			q.Close()
		})
		p.Go("consumer", func(p clock.Proc) {
			for {
				if _, ok := q.Get(p); !ok {
					return
				}
			}
		})
	})
}

func BenchmarkSJPGDecode(b *testing.B) {
	im := imaging.SynthesizeImage(224, 224, 1)
	blob := imaging.EncodeSJPGSubsampled(im, 85, imaging.Sub444)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := imaging.DecodeSJPG(blob)
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

func BenchmarkSJPGEncode(b *testing.B) {
	im := imaging.SynthesizeImage(224, 224, 1)
	b.SetBytes(int64(len(im.Pix)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imaging.EncodeSJPGSubsampled(im, 85, imaging.Sub444)
	}
}

func BenchmarkBilinearResize(b *testing.B) {
	im := imaging.SynthesizeImage(512, 512, 2)
	b.SetBytes(int64(len(im.Pix)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imaging.Resize(im, 224, 224).Release()
	}
}

func BenchmarkFlipHorizontal(b *testing.B) {
	im := imaging.SynthesizeImage(224, 224, 3)
	b.SetBytes(int64(len(im.Pix)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imaging.FlipHorizontalInPlace(im)
	}
}

func BenchmarkCrop(b *testing.B) {
	im := imaging.SynthesizeImage(512, 512, 4)
	b.SetBytes(int64(224 * 224 * 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imaging.Crop(im, 96, 96, 224, 224).Release()
	}
}

// BenchmarkComposeICSample pushes one full IC sample through Compose in real
// mode — decode, RandomResizedCrop, flip, tensor conversion, normalize on
// actual pixels — the per-sample cost a real-data DataLoader worker pays.
// The loader's I/O model is zeroed so the pixel path is what is measured.
func BenchmarkComposeICSample(b *testing.B) {
	compose := pipeline.NewCompose(
		&pipeline.Loader{},
		&pipeline.RandomResizedCrop{Size: 224},
		&pipeline.RandomHorizontalFlip{},
		&pipeline.ToTensor{},
		&pipeline.Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
	)
	b.ReportAllocs()
	clock.NewReal().Run("bench", func(p clock.Proc) {
		ctx := &pipeline.Ctx{Proc: p, Mode: pipeline.RealData, Seed: 1, MaterializeDim: 256}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := pipeline.Sample{Index: i, Seed: int64(i), Width: 500, Height: 375, FileBytes: 111 << 10, Channels: 3}
			s = compose.Apply(ctx, 4001, 0, s)
			if s.Tensor == nil {
				b.Error("compose produced no tensor")
				return
			}
		}
	})
}

func BenchmarkNativeExec(b *testing.B) {
	e := native.NewEngine(native.Intel)
	th := &native.Thread{ID: 1, Cursor: clock.Epoch}
	calls := []native.Call{
		{Kernel: "decode_mcu", Bytes: 111 << 10},
		{Kernel: "jpeg_idct_islow", Bytes: 1 << 20},
		{Kernel: "ycc_rgb_convert", Bytes: 1 << 20},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Exec(th, calls)
	}
}

func BenchmarkSamplerOverTimeline(b *testing.B) {
	e := native.NewEngine(native.Intel)
	rec := native.NewRecording()
	e.Attach(rec)
	th := &native.Thread{ID: 1, Cursor: clock.Epoch}
	for i := 0; i < 2000; i++ {
		e.Exec(th, []native.Call{{Kernel: "decode_mcu", Bytes: 64 << 10}})
	}
	e.Detach()
	windows := []hwsim.TimeRange{{Start: clock.Epoch, End: th.Cursor}}
	s := hwsim.NewSampler(hwsim.VTuneSampler(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(rec, windows)
	}
}

// --- ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationMappingSingleRun vs BenchmarkAblationMappingMultiRun:
// the run-count formula's cost/benefit (recall measured in tests; here the
// time cost of the extra runs).
func BenchmarkAblationMappingSingleRun(b *testing.B) { benchMappingRuns(b, 1) }
func BenchmarkAblationMappingMultiRun(b *testing.B)  { benchMappingRuns(b, 0) } // formula-chosen

func benchMappingRuns(b *testing.B, forceRuns int) {
	engine := lotus.NewEngine(lotus.Intel)
	spec := lotus.ICWorkload(4, 1)
	cfg := lotus.DefaultMapConfig(lotus.VTuneSampler(1))
	if forceRuns > 0 {
		cfg.MaxRuns = forceRuns
	}
	proto := spec.Prototype()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lotus.MapPipeline(engine, spec.MappingCompose(), proto, cfg)
	}
}

// Sleep-gap bucketing on vs off (mis-attribution consequences are tested in
// lotusmap; this reports the time cost of the gaps, which is ~zero in
// virtual time).
func BenchmarkAblationMappingNoGap(b *testing.B) {
	engine := lotus.NewEngine(lotus.Intel)
	spec := lotus.ICWorkload(4, 1)
	cfg := lotus.DefaultMapConfig(lotus.VTuneSampler(1))
	cfg.GapSleep = 0
	proto := spec.Prototype()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lotus.MapPipeline(engine, spec.MappingCompose(), proto, cfg)
	}
}
