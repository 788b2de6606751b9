package lotus_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lotus"
)

// TestPublicAPIQuickstart exercises the documented facade flow end to end:
// build a pipeline, trace an epoch, analyze, visualize.
func TestPublicAPIQuickstart(t *testing.T) {
	clk := lotus.NewSimClock()
	var buf bytes.Buffer
	tracer := lotus.NewTracer(&buf)
	hooks := tracer.Hooks()

	compose := lotus.NewCompose(
		&lotus.Loader{IO: lotus.DefaultIO()},
		&lotus.RandomResizedCrop{Size: 224},
		&lotus.RandomHorizontalFlip{},
		&lotus.ToTensor{},
		&lotus.Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
	)
	compose.Hooks = hooks
	dataset := lotus.NewImageFolder(lotus.NewImageDataset(lotus.ImageNetConfig(60, 1)), compose)
	loader := lotus.NewDataLoader(clk, dataset, lotus.LoaderConfig{
		BatchSize:  10,
		NumWorkers: 2,
		Seed:       1,
		Hooks:      hooks,
		Mode:       lotus.Simulated,
		Engine:     lotus.NewEngine(lotus.Intel),
	})

	consumed := 0
	clk.Run("main", func(p lotus.Proc) {
		it := loader.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				break
			}
			consumed++
		}
	})
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if consumed != 6 {
		t.Fatalf("consumed %d batches", consumed)
	}

	analysis := lotus.Analyze(lotus.MustReadLog(&buf))
	if len(analysis.Batches()) != 6 {
		t.Fatalf("analysis sees %d batches", len(analysis.Batches()))
	}
	if analysis.OpStats()["Loader"].Count != 60 {
		t.Fatalf("Loader count %d", analysis.OpStats()["Loader"].Count)
	}
	viz, err := lotus.ExportChrome(analysis.Records, lotus.Coarse)
	if err != nil || !bytes.Contains(viz, []byte("SBatchPreprocessed_0")) {
		t.Fatalf("chrome export broken: %v", err)
	}
}

// TestPublicAPIHardwareFlow exercises mapping + attribution via the facade.
func TestPublicAPIHardwareFlow(t *testing.T) {
	engine := lotus.NewEngine(lotus.AMD)
	spec := lotus.ICWorkload(4, 1)
	cfg := lotus.DefaultMapConfig(lotus.UProfSampler(1))
	cfg.MaxRuns = 15
	proto := spec.Prototype()
	proto.Width *= 2
	proto.Height *= 2
	proto.FileBytes *= 4
	m := lotus.MapPipeline(engine, spec.Compose(nil), proto, cfg)
	if len(m.Ops["Loader"]) == 0 {
		t.Fatal("empty Loader mapping")
	}
	q := lotus.EvaluateMapping(m, engine, spec.Compose(nil))
	if len(q) == 0 {
		t.Fatal("no quality rows")
	}
	if n := lotus.RunsNeeded(0.75, 660*time.Microsecond, 10*time.Millisecond); n < 15 || n > 25 {
		t.Fatalf("RunsNeeded = %d", n)
	}
}

// TestPublicAPIExperiments checks the registry round trip.
func TestPublicAPIExperiments(t *testing.T) {
	if len(lotus.Experiments()) != 11 {
		t.Fatalf("%d experiments", len(lotus.Experiments()))
	}
	exp, ok := lotus.LookupExperiment("table4")
	if !ok {
		t.Fatal("table4 missing")
	}
	out := exp.Run(lotus.ScaleSmall).Render()
	if !strings.Contains(out, "Lotus") {
		t.Fatal("table4 render broken")
	}
}
