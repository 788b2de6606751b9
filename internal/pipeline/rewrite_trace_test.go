package pipeline_test

import (
	"bytes"
	"testing"

	"lotus/internal/clock"
	"lotus/internal/core/trace"
	"lotus/internal/data"
	"lotus/internal/pipeline"
)

// TestRewrittenPlanTraceValidates: a real-pixel DataLoader epoch under both
// plan rewrites — the decode windowed, the tensor tail left to the collate —
// writes a LotusTrace log that passes every trace invariant, with the records
// of the plan as written: each op once per sample, Collate once per batch.
func TestRewrittenPlanTraceValidates(t *testing.T) {
	const n, batch = 16, 4
	ds := data.NewImageDataset(data.ImageNetConfig(n, 5))
	var buf bytes.Buffer
	tr := trace.NewTracer(&buf)
	chain := pipeline.NewCompose(
		&pipeline.Loader{IO: data.IOModel{}},
		&pipeline.RandomResizedCrop{Size: 32},
		&pipeline.RandomHorizontalFlip{},
		&pipeline.ToTensor{},
		&pipeline.Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
	)
	chain.Hooks = tr.Hooks()
	if got, want := chain.Rewrites(pipeline.RealData, false), "crop→decode, tensor tail→collate"; got != want {
		t.Fatalf("rewrites %q, want %q", got, want)
	}
	clk := clock.NewReal()
	dl := pipeline.NewDataLoader(clk, pipeline.NewImageFolder(ds, chain), pipeline.Config{
		BatchSize: batch, NumWorkers: 2, Shuffle: true, Seed: 5,
		Mode: pipeline.RealData, MaterializeDim: 64, Hooks: tr.Hooks(),
	})
	clk.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				if err := it.Err(); err != nil {
					t.Error(err)
				}
				return
			}
		}
	})
	tr.Flush()
	recs, err := trace.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if issues := trace.Validate(recs); len(issues) != 0 {
		t.Fatalf("trace invalid: %v", issues)
	}
	ops := make(map[string]int)
	for _, r := range recs {
		if r.Kind == trace.KindOp {
			ops[r.Op]++
		}
	}
	for _, name := range chain.Names() {
		if ops[name] != n {
			t.Errorf("%d %s records, want %d", ops[name], name, n)
		}
	}
	if ops["Collate"] != n/batch {
		t.Errorf("%d Collate records, want %d", ops["Collate"], n/batch)
	}
}
