package lotus_test

import (
	"bytes"
	"fmt"
	"time"

	"lotus"
)

// ExampleNewTracer traces a small simulated epoch and prints per-operation
// statistics — the minimal LotusTrace workflow.
func ExampleNewTracer() {
	clk := lotus.NewSimClock()
	var buf bytes.Buffer
	tracer := lotus.NewTracer(&buf)
	hooks := tracer.Hooks()

	compose := lotus.NewCompose(
		&lotus.Loader{IO: lotus.DefaultIO()},
		&lotus.RandomResizedCrop{Size: 224},
		&lotus.ToTensor{},
	)
	compose.Hooks = hooks
	loader := lotus.NewDataLoader(clk,
		lotus.NewImageFolder(lotus.NewImageDataset(lotus.ImageNetConfig(20, 1)), compose),
		lotus.LoaderConfig{
			BatchSize: 10, NumWorkers: 2, Seed: 1, Hooks: hooks,
			Mode: lotus.Simulated, Engine: lotus.NewEngine(lotus.Intel),
		})

	clk.Run("main", func(p lotus.Proc) {
		it := loader.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				break
			}
		}
	})
	tracer.Flush()

	analysis := lotus.Analyze(lotus.MustReadLog(&buf))
	fmt.Printf("batches traced: %d\n", len(analysis.Batches()))
	fmt.Printf("Loader applications: %d\n", analysis.OpStats()["Loader"].Count)
	// Output:
	// batches traced: 2
	// Loader applications: 20
}

// ExampleNewIterableLoader traces a stream dataset: three workers each walk
// their own shard, and the trace is as valid as a DataLoader's.
func ExampleNewIterableLoader() {
	clk := lotus.NewSimClock()
	var buf bytes.Buffer
	tracer := lotus.NewTracer(&buf)
	hooks := tracer.Hooks()

	compose := lotus.NewCompose(
		&lotus.Loader{IO: lotus.DefaultIO()},
		&lotus.RandomResizedCrop{Size: 224},
		&lotus.ToTensor{},
	)
	compose.Hooks = hooks
	folder := lotus.NewImageFolder(lotus.NewImageDataset(lotus.ImageNetConfig(60, 1)), compose)
	loader := lotus.NewIterableLoader(clk, &lotus.ImageStream{Folder: folder}, lotus.LoaderConfig{
		BatchSize: 4, NumWorkers: 3, Seed: 1, Hooks: hooks,
		Mode: lotus.Simulated, Engine: lotus.NewEngine(lotus.Intel),
	})

	samples, batches := 0, 0
	clk.Run("main", func(p lotus.Proc) {
		it := loader.Start(p)
		for {
			b, ok := it.Next(p)
			if !ok {
				break
			}
			samples += b.Size()
			batches++
		}
	})
	tracer.Flush()

	fmt.Printf("samples: %d, batches: %d\n", samples, batches)
	fmt.Printf("trace issues: %d\n", len(lotus.Validate(lotus.MustReadLog(&buf))))
	// Output:
	// samples: 60, batches: 15
	// trace issues: 0
}

// ExampleRunsNeeded reproduces the paper's § IV-B worked example: a 660 µs
// function under 10 ms sampling needs ~20 runs for 75% capture confidence
// (the exact ceiling of ln(0.25)/ln(1-0.066) is 21; the paper rounds to 20).
func ExampleRunsNeeded() {
	n := lotus.RunsNeeded(0.75, 660*time.Microsecond, 10*time.Millisecond)
	fmt.Println(n)
	// Output:
	// 21
}

// ExampleMapPipeline reconstructs the operation → C/C++ mapping for the IC
// pipeline on the AMD (1 ms sampling) profiler and prints whether the
// dominant decode kernel was recovered.
func ExampleMapPipeline() {
	engine := lotus.NewEngine(lotus.AMD)
	spec := lotus.ICWorkload(4, 1)
	cfg := lotus.DefaultMapConfig(lotus.UProfSampler(1))
	proto := spec.Prototype()
	proto.Width, proto.Height, proto.FileBytes = proto.Width*2, proto.Height*2, proto.FileBytes*4

	mapping := lotus.MapPipeline(engine, spec.MappingCompose(), proto, cfg)
	for _, f := range mapping.Symbols("Loader") {
		if f.Symbol == "decode_mcu" {
			fmt.Println("Loader -> decode_mcu (libjpeg.so.9)")
		}
	}
	// Output:
	// Loader -> decode_mcu (libjpeg.so.9)
}

// ExampleWorkloadSpec_Run runs a paper workload and reports its bottleneck.
func ExampleWorkloadSpec_Run() {
	spec := lotus.ISWorkload(16, 1) // segmentation: U-Net3D dominates
	stats, _, _ := spec.Run(nil)
	if stats.GPUUtilization() > 0.9 {
		fmt.Println("GPU-bound")
	} else {
		fmt.Println("preprocessing-bound")
	}
	// Output:
	// GPU-bound
}

// ExampleAnalysis_Advise runs the automated log analysis over a starved
// configuration.
func ExampleAnalysis_Advise() {
	spec := lotus.ICWorkload(512, 1)
	spec.BatchSize, spec.GPUs, spec.NumWorkers = 64, 4, 1

	var buf bytes.Buffer
	tracer := lotus.NewTracer(&buf)
	spec.Run(tracer.Hooks())
	tracer.Flush()

	findings := lotus.Analyze(lotus.MustReadLog(&buf)).Advise(lotus.AdvisorConfig{})
	for _, f := range findings {
		if f.Rule == "preprocessing-bound" {
			fmt.Println("finding: preprocessing-bound (critical)")
		}
	}
	// Output:
	// finding: preprocessing-bound (critical)
}
