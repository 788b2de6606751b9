package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

func hasIssue(issues []Issue, code string) bool {
	for _, i := range issues {
		if i.Code == code {
			return true
		}
	}
	return false
}

func TestValidateAcceptsRealPipelineLog(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	hooks := tr.Hooks()
	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(60, 5))
	c := pipeline.NewCompose(
		&pipeline.Loader{IO: data.DefaultIO()},
		&pipeline.RandomResizedCrop{Size: 224},
		&pipeline.ToTensor{},
	)
	c.Hooks = hooks
	dl := pipeline.NewDataLoader(sim, pipeline.NewImageFolder(ds, c), pipeline.Config{
		BatchSize: 10, NumWorkers: 3, Seed: 2, Hooks: hooks, PinMemory: true,
		Mode: pipeline.Simulated, Engine: native.NewEngine(native.Intel),
	})
	sim.Run("main", func(p clock.Proc) {
		it := dl.Start(p)
		for {
			if _, ok := it.Next(p); !ok {
				break
			}
		}
	})
	tr.Flush()
	recs, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if issues := Validate(recs); len(issues) != 0 {
		t.Fatalf("real pipeline log failed validation: %v", issues)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base := []Record{
		{Kind: KindBatchPreprocessed, PID: 4001, BatchID: 0, SampleIndex: -1, Start: at(0), Dur: 100 * time.Millisecond},
		{Kind: KindBatchWait, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(100 * time.Millisecond), Dur: 10 * time.Millisecond},
		{Kind: KindBatchConsumed, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(110 * time.Millisecond), Dur: time.Millisecond},
	}
	cases := []struct {
		name   string
		mutate func([]Record) []Record
		code   string
	}{
		{"negative duration", func(r []Record) []Record {
			r[0].Dur = -time.Millisecond
			return r
		}, "negative-duration"},
		{"consumed before ready", func(r []Record) []Record {
			r[2].Start = at(50 * time.Millisecond)
			return r
		}, "consumed-before-ready"},
		{"duplicate records", func(r []Record) []Record {
			return append(r, r[0])
		}, "duplicate-batch-records"},
		{"consumed without preprocessing", func(r []Record) []Record {
			return append(r, Record{Kind: KindBatchConsumed, PID: 4000, BatchID: 7, SampleIndex: -1, Start: at(time.Second)})
		}, "consumed-without-preprocessing"},
		{"two main pids", func(r []Record) []Record {
			return append(r,
				Record{Kind: KindBatchPreprocessed, PID: 4002, BatchID: 1, SampleIndex: -1, Start: at(0), Dur: time.Millisecond},
				Record{Kind: KindBatchWait, PID: 4009, BatchID: 1, SampleIndex: -1, Start: at(time.Second), Dur: time.Millisecond})
		}, "multiple-main-pids"},
		{"worker is main", func(r []Record) []Record {
			r[0].PID = 4000
			return r
		}, "worker-is-main"},
		{"op outside batch", func(r []Record) []Record {
			return append(r, Record{Kind: KindOp, PID: 4001, BatchID: 0, SampleIndex: 1, Op: "Loader",
				Start: at(300 * time.Millisecond), Dur: 50 * time.Millisecond})
		}, "op-outside-batch"},
		{"op without batch", func(r []Record) []Record {
			return append(r, Record{Kind: KindOp, PID: 4001, BatchID: 42, SampleIndex: 1, Op: "Loader",
				Start: at(0), Dur: time.Millisecond})
		}, "op-without-batch"},
	}
	for _, c := range cases {
		recs := c.mutate(append([]Record(nil), base...))
		issues := Validate(recs)
		if !hasIssue(issues, c.code) {
			t.Errorf("%s: expected issue %q, got %v", c.name, c.code, issues)
		}
	}
}

func TestValidateOutOfOrderConsumption(t *testing.T) {
	recs := []Record{
		{Kind: KindBatchPreprocessed, PID: 4001, BatchID: 0, SampleIndex: -1, Start: at(0), Dur: time.Millisecond},
		{Kind: KindBatchPreprocessed, PID: 4001, BatchID: 1, SampleIndex: -1, Start: at(0), Dur: time.Millisecond},
		{Kind: KindBatchConsumed, PID: 4000, BatchID: 1, SampleIndex: -1, Start: at(time.Second)},
		{Kind: KindBatchConsumed, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(2 * time.Second)},
	}
	if !hasIssue(Validate(recs), "out-of-order-consumption") {
		t.Fatal("missed out-of-order consumption")
	}
}

func TestValidateCleanLogIsQuiet(t *testing.T) {
	recs := []Record{
		{Kind: KindBatchPreprocessed, PID: 4001, BatchID: 0, SampleIndex: -1, Start: at(0), Dur: 10 * time.Millisecond},
		{Kind: KindOp, PID: 4001, BatchID: 0, SampleIndex: 0, Op: "Loader", Start: at(time.Millisecond), Dur: 5 * time.Millisecond},
		{Kind: KindBatchWait, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(10 * time.Millisecond), Dur: time.Millisecond},
		{Kind: KindBatchConsumed, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(11 * time.Millisecond)},
	}
	if issues := Validate(recs); len(issues) != 0 {
		t.Fatalf("clean log produced issues: %v", issues)
	}
}

func TestRenderTimeline(t *testing.T) {
	recs := []Record{
		{Kind: KindBatchPreprocessed, PID: 4001, BatchID: 0, SampleIndex: -1, Start: at(0), Dur: 400 * time.Millisecond},
		{Kind: KindBatchPreprocessed, PID: 4002, BatchID: 1, SampleIndex: -1, Start: at(0), Dur: 700 * time.Millisecond},
		{Kind: KindBatchWait, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(0), Dur: 400 * time.Millisecond},
		{Kind: KindBatchConsumed, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(410 * time.Millisecond), Dur: time.Millisecond},
		{Kind: KindBatchConsumed, PID: 4000, BatchID: 1, SampleIndex: -1, Start: at(720 * time.Millisecond), Dur: time.Millisecond},
	}
	out := RenderTimeline(recs, 60)
	if !strings.Contains(out, "main") || !strings.Contains(out, "worker 4001") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "=") || !strings.Contains(out, "C") || !strings.Contains(out, "W") {
		t.Fatalf("missing span/marker glyphs:\n%s", out)
	}
	// Main row is first.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[1], "main") {
		t.Fatalf("main row should lead:\n%s", out)
	}
	if RenderTimeline(nil, 60) != "(empty trace)\n" {
		t.Fatal("empty trace rendering")
	}
	opOnly := []Record{{Kind: KindOp, PID: 1, BatchID: 0, Op: "X", Start: at(0), Dur: time.Millisecond}}
	if RenderTimeline(opOnly, 60) != "(no batch records)\n" {
		t.Fatal("op-only trace rendering")
	}
}

func TestBuildHTMLReport(t *testing.T) {
	var recs []Record
	for i := 0; i < 6; i++ {
		base := time.Duration(i) * time.Second
		recs = mkBatch(recs, i, i%2, base, 800*time.Millisecond, 700*time.Millisecond, base+900*time.Millisecond)
		recs = append(recs, Record{Kind: KindOp, PID: 4001 + i%2, BatchID: i, SampleIndex: i,
			Op: "Loader", Start: at(base), Dur: 600 * time.Millisecond})
	}
	html, err := BuildHTMLReport(recs, map[string]string{"workload": "IC", "batch": "64"})
	if err != nil {
		t.Fatal(err)
	}
	out := string(html)
	for _, want := range []string{
		"<!DOCTYPE html>", "LotusTrace report",
		"workload=IC", "Loader", "preprocessing-bound", "<svg", "batch 3",
		"Main-process wait times", "Batch delay times",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// Self-contained: no external resources.
	for _, banned := range []string{"http://", "https://", "src="} {
		if strings.Contains(out, banned) {
			t.Fatalf("report references external resource (%q)", banned)
		}
	}
}

func TestBuildHTMLReportEmptyTrace(t *testing.T) {
	html, err := BuildHTMLReport(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "empty-trace") {
		t.Fatal("empty trace should surface the empty-trace finding")
	}
}

func TestHistogramBuckets(t *testing.T) {
	ds := []time.Duration{
		500 * time.Microsecond, // <1ms
		5 * time.Millisecond,   // 1-10ms
		50 * time.Millisecond,  // 10-100ms
		200 * time.Millisecond, // 0.1-0.5s
		time.Second,            // 0.5-2s
		10 * time.Second,       // >2s
		10 * time.Second,       // >2s
	}
	h := histogram(ds)
	if len(h) != 6 {
		t.Fatalf("bins %d", len(h))
	}
	want := []int{1, 1, 1, 1, 1, 2}
	for i, b := range h {
		if b.Count != want[i] {
			t.Fatalf("bin %s count %d, want %d", b.Label, b.Count, want[i])
		}
	}
	if h[5].Pct != 100 {
		t.Fatalf("max bin pct %v", h[5].Pct)
	}
}
