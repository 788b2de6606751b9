package workloads

import (
	"bytes"
	"testing"

	"lotus/internal/core/trace"
)

func TestRunEpochsProducesDistinctBatchIDs(t *testing.T) {
	spec := ICSpec(96, 9)
	spec.BatchSize, spec.NumWorkers = 16, 2

	var buf bytes.Buffer
	tr := trace.NewTracer(&buf)
	stats, _, _ := spec.RunEpochs(tr.Hooks(), 3)
	tr.Flush()

	if len(stats) != 3 {
		t.Fatalf("got %d epoch stats", len(stats))
	}
	recs, err := trace.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(recs)
	// 96/16 = 6 batches per epoch x 3 epochs, IDs 0..17 without collision.
	bs := a.Batches()
	if len(bs) != 18 {
		t.Fatalf("trace shows %d batches, want 18", len(bs))
	}
	for i, b := range bs {
		if b.ID != i {
			t.Fatalf("batch IDs collide or skip: got %d at position %d", b.ID, i)
		}
		if b.PreDur <= 0 {
			t.Fatalf("batch %d missing preprocessing span", b.ID)
		}
	}
	// The combined multi-epoch log still satisfies every trace invariant.
	if issues := trace.Validate(recs); len(issues) != 0 {
		t.Fatalf("multi-epoch trace invalid: %v", issues)
	}
}

func TestRunEpochsReshufflesPerEpoch(t *testing.T) {
	spec := ICSpec(64, 3)
	spec.BatchSize, spec.NumWorkers = 8, 1
	spec.Shuffle = true

	// Capture each epoch's first-batch sample order via op records.
	var buf bytes.Buffer
	tr := trace.NewTracer(&buf)
	spec.RunEpochs(tr.Hooks(), 2)
	tr.Flush()
	recs, _ := trace.ReadLog(&buf)

	perEpochOrder := map[int][]int{} // epoch (batchID/8) -> sample order
	for _, r := range recs {
		if r.Kind == trace.KindOp && r.Op == "Loader" {
			epoch := r.BatchID / 8
			perEpochOrder[epoch] = append(perEpochOrder[epoch], r.SampleIndex)
		}
	}
	if len(perEpochOrder[0]) != 64 || len(perEpochOrder[1]) != 64 {
		t.Fatalf("per-epoch op counts: %d / %d", len(perEpochOrder[0]), len(perEpochOrder[1]))
	}
	same := true
	for i := range perEpochOrder[0] {
		if perEpochOrder[0][i] != perEpochOrder[1][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epochs used identical shuffles; PyTorch reshuffles per epoch")
	}
}

func TestRunEpochsTimeAccumulates(t *testing.T) {
	spec := ICSpec(64, 4)
	spec.BatchSize, spec.NumWorkers = 16, 2
	_, _, sim1 := spec.RunEpochs(nil, 1)
	_, _, sim3 := spec.RunEpochs(nil, 3)
	if sim3.Elapsed() < 2*sim1.Elapsed() {
		t.Fatalf("3 epochs (%v) should take ~3x one epoch (%v)", sim3.Elapsed(), sim1.Elapsed())
	}
}

func TestRunEpochsRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ICSpec(8, 1).RunEpochs(nil, 0)
}
