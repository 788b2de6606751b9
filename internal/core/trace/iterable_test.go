package trace

import (
	"bytes"
	"fmt"
	"testing"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

// TestIterableLoaderTraceValidates: the stream loader's trace passes
// Validate under any worker count, so out-of-order stream batches get one
// wait record each, as map-style batches do.
func TestIterableLoaderTraceValidates(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var buf bytes.Buffer
			tr := NewTracer(&buf)
			hooks := tr.Hooks()
			c := pipeline.NewCompose(
				&pipeline.Loader{IO: data.DefaultIO()},
				&pipeline.RandomResizedCrop{Size: 224},
				&pipeline.ToTensor{},
			)
			c.Hooks = hooks
			folder := pipeline.NewImageFolder(data.NewImageDataset(data.ImageNetConfig(60, 5)), c)
			sim := clock.NewSim()
			il := pipeline.NewIterableLoader(sim, &pipeline.ImageStream{Folder: folder}, pipeline.Config{
				BatchSize: 4, NumWorkers: workers, Seed: 2, Hooks: hooks,
				Mode: pipeline.Simulated, Engine: native.NewEngine(native.Intel),
			})
			samples := 0
			sim.Run("main", func(p clock.Proc) {
				it := il.Start(p)
				for {
					b, ok := it.Next(p)
					if !ok {
						break
					}
					samples += b.Size()
				}
			})
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			recs, err := ReadLog(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if samples != 60 {
				t.Errorf("%d samples delivered, want 60", samples)
			}
			if issues := Validate(recs); len(issues) != 0 {
				t.Errorf("stream loader trace failed validation: %v", issues)
			}
		})
	}
}
