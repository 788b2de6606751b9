package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

// format renders the record's on-disk line.
func (r Record) format() string { return string(r.appendFormat(nil)) }

func at(d time.Duration) time.Time { return clock.Epoch.Add(d) }

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindOp, PID: 4001, BatchID: 3, SampleIndex: 17, Op: "RandomResizedCrop", Start: at(time.Second), Dur: 1100 * time.Microsecond},
		{Kind: KindBatchPreprocessed, PID: 4002, BatchID: 9, SampleIndex: -1, Start: at(2 * time.Second), Dur: 40 * time.Millisecond},
		{Kind: KindBatchWait, PID: 4000, BatchID: 9, SampleIndex: -1, Start: at(3 * time.Second), Dur: NoWaitMarker},
		{Kind: KindBatchConsumed, PID: 4000, BatchID: 9, SampleIndex: -1, Start: at(4 * time.Second), Dur: 0},
	}
	for _, r := range recs {
		got, err := ParseRecord(r.format())
		if err != nil {
			t.Fatalf("parse(%q): %v", r.format(), err)
		}
		if got != r {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
		}
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(pid, batch uint16, sample int16, startUs, durUs uint32) bool {
		r := Record{
			Kind: KindOp, PID: int(pid), BatchID: int(batch), SampleIndex: int(sample),
			Op:    "ToTensor",
			Start: at(time.Duration(startUs) * time.Microsecond),
			Dur:   time.Duration(durUs) * time.Microsecond,
		}
		got, err := ParseRecord(r.format())
		return err == nil && got == r
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"", "op,1,2,3", "bogus,1,2,3,x,4,5", "op,a,2,3,x,4,5", "op,1,2,3,x,4",
	} {
		if _, err := ParseRecord(line); err == nil {
			t.Errorf("ParseRecord(%q) accepted malformed input", line)
		}
	}
}

func TestReadLogSkipsCommentsAndBlank(t *testing.T) {
	log := "# header\n\nop,1,0,5,Loader,1000,2000\npre,2,0,-1,,1000,9000\n"
	recs, err := ReadLog(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
}

func TestTracerEmitsParseableLog(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	h := tr.Hooks()
	h.OnOp(4001, 0, 12, "Loader", at(time.Millisecond), 5*time.Millisecond)
	h.OnBatchPreprocessed(4001, 0, at(0), 8*time.Millisecond)
	h.OnBatchWait(4000, 0, at(8*time.Millisecond), time.Millisecond)
	h.OnBatchConsumed(4000, 0, at(9*time.Millisecond), 100*time.Microsecond)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || tr.Records() != 4 {
		t.Fatalf("got %d records (tracer says %d), want 4", len(recs), tr.Records())
	}
	if tr.Bytes() <= 0 {
		t.Fatal("tracer reports zero bytes written")
	}
	if recs[0].Op != "Loader" || recs[0].SampleIndex != 12 {
		t.Fatalf("first record %+v", recs[0])
	}
}

func TestAnalysisBatchJoinAndDelay(t *testing.T) {
	recs := []Record{
		{Kind: KindBatchPreprocessed, PID: 4001, BatchID: 0, SampleIndex: -1, Start: at(0), Dur: 100 * time.Millisecond},
		{Kind: KindBatchWait, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(50 * time.Millisecond), Dur: 50 * time.Millisecond},
		{Kind: KindBatchConsumed, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(250 * time.Millisecond), Dur: time.Millisecond},
		{Kind: KindBatchPreprocessed, PID: 4002, BatchID: 1, SampleIndex: -1, Start: at(0), Dur: 600 * time.Millisecond},
		{Kind: KindBatchWait, PID: 4000, BatchID: 1, SampleIndex: -1, Start: at(251 * time.Millisecond), Dur: NoWaitMarker},
		{Kind: KindBatchConsumed, PID: 4000, BatchID: 1, SampleIndex: -1, Start: at(900 * time.Millisecond), Dur: time.Millisecond},
	}
	a := Analyze(recs)
	bs := a.Batches()
	if len(bs) != 2 {
		t.Fatalf("joined %d batches", len(bs))
	}
	if bs[0].Delay() != 150*time.Millisecond {
		t.Fatalf("batch 0 delay %v, want 150ms", bs[0].Delay())
	}
	if !bs[1].OutOfOrder() || bs[0].OutOfOrder() {
		t.Fatal("OOO flags wrong")
	}
	if got := a.OutOfOrderBatches(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("OutOfOrderBatches = %v", got)
	}
	if got := a.WaitsOver(40 * time.Millisecond); got != 0.5 {
		t.Fatalf("WaitsOver = %v", got)
	}
	if got := a.DelaysOver(200 * time.Millisecond); got != 0.5 {
		t.Fatalf("DelaysOver = %v (batch1 delay %v)", got, bs[1].Delay())
	}
	if got := a.TotalCPUSeconds(); got != 0.7 {
		t.Fatalf("TotalCPUSeconds = %v", got)
	}
}

func TestOpStats(t *testing.T) {
	var recs []Record
	for i := 0; i < 100; i++ {
		recs = append(recs, Record{
			Kind: KindOp, PID: 4001, BatchID: i / 10, SampleIndex: i, Op: "Loader",
			Start: at(time.Duration(i) * time.Millisecond),
			Dur:   time.Duration(i+1) * 100 * time.Microsecond, // 0.1ms..10ms
		})
	}
	st := Analyze(recs).OpStats()["Loader"]
	if st.Count != 100 {
		t.Fatalf("count %d", st.Count)
	}
	wantMean := 5050 * time.Microsecond
	if st.Mean != wantMean {
		t.Fatalf("mean %v, want %v", st.Mean, wantMean)
	}
	// 99 of 100 durations are < 10ms (only the 10.0ms one is not).
	if st.Under10ms != 0.99 {
		t.Fatalf("Under10ms = %v", st.Under10ms)
	}
	// Durations start at 0.1ms, so none are under 100µs.
	if st.Under100us != 0 {
		t.Fatalf("Under100us = %v", st.Under100us)
	}
	if st.P90 < 9*time.Millisecond || st.P90 > 9300*time.Microsecond {
		t.Fatalf("P90 = %v", st.P90)
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(ds, 0); p != 1 {
		t.Fatalf("P0 = %v", p)
	}
	if p := Percentile(ds, 1); p != 10 {
		t.Fatalf("P100 = %v", p)
	}
	if p := Percentile(ds, 0.5); p != 5 { // pos 4.5 -> between 5 and 6 -> 5.5 truncated
		t.Fatalf("P50 = %v", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
}

func TestComputeDistStats(t *testing.T) {
	ds := []time.Duration{100, 200, 300, 400}
	st := ComputeDistStats(ds)
	if st.Mean != 250 {
		t.Fatalf("mean %v", st.Mean)
	}
	if st.Min != 100 || st.Max != 400 {
		t.Fatalf("min/max %v/%v", st.Min, st.Max)
	}
	if st.IQR <= 0 {
		t.Fatalf("IQR %v", st.IQR)
	}
	if st.StdOfMean <= 0 {
		t.Fatal("StdOfMean should be positive")
	}
}

func TestOpWeightsSplitProportionally(t *testing.T) {
	recs := []Record{
		{Kind: KindOp, PID: 1, BatchID: 0, SampleIndex: 0, Op: "Loader", Start: at(0), Dur: 300 * time.Millisecond},
		{Kind: KindOp, PID: 1, BatchID: 0, SampleIndex: 0, Op: "RandomResizedCrop", Start: at(0), Dur: 100 * time.Millisecond},
		{Kind: KindOp, PID: 1, BatchID: 0, SampleIndex: 0, Op: "ToTensor", Start: at(0), Dur: 100 * time.Millisecond},
	}
	w := Analyze(recs).OpWeights([]string{"Loader", "RandomResizedCrop", "ToTensor"})
	if w["Loader"] != 0.6 || w["RandomResizedCrop"] != 0.2 || w["ToTensor"] != 0.2 {
		t.Fatalf("weights %v", w)
	}
}

func TestChromeExportStructure(t *testing.T) {
	recs := []Record{
		{Kind: KindOp, PID: 4001, BatchID: 0, SampleIndex: 3, Op: "Loader", Start: at(time.Millisecond), Dur: 4 * time.Millisecond},
		{Kind: KindBatchPreprocessed, PID: 4001, BatchID: 0, SampleIndex: -1, Start: at(0), Dur: 10 * time.Millisecond},
		{Kind: KindBatchWait, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(10 * time.Millisecond), Dur: time.Millisecond},
		{Kind: KindBatchConsumed, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(11 * time.Millisecond), Dur: time.Millisecond},
	}
	out, err := ExportChrome(recs, Fine)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		names[ev["name"].(string)]++
		if id, ok := ev["id"].(float64); ok && id >= 0 && ev["ph"] != "M" {
			t.Fatalf("event %v has non-negative synthetic id %v", ev["name"], id)
		}
	}
	for _, want := range []string{"SBatchPreprocessed_0", "SBatchWait_0", "SBatchConsumed_0", "SLoader", "batch_flow", "process_name"} {
		if names[want] == 0 {
			t.Fatalf("missing chrome event %q in %v", want, names)
		}
	}
	if names["batch_flow"] != 2 {
		t.Fatalf("flow arrow needs start+finish events, got %d", names["batch_flow"])
	}

	// Coarse granularity omits op spans.
	coarse, _ := ExportChrome(recs, Coarse)
	if bytes.Contains(coarse, []byte("SLoader")) {
		t.Fatal("coarse export should not contain op spans")
	}
}

func TestAugmentChromePreservesExisting(t *testing.T) {
	existing := []byte(`{"traceEvents":[{"name":"aten::conv2d","ph":"X","ts":5,"dur":10,"pid":1,"tid":1,"id":42}],"schemaVersion":1}`)
	recs := []Record{
		{Kind: KindBatchWait, PID: 4000, BatchID: 0, SampleIndex: -1, Start: at(0), Dur: time.Millisecond},
	}
	out, err := AugmentChrome(existing, recs, Coarse)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["schemaVersion"]; !ok {
		t.Fatal("augment dropped sibling fields")
	}
	evs := doc["traceEvents"].([]any)
	foundTorch, foundLotus := false, false
	for _, e := range evs {
		name := e.(map[string]any)["name"].(string)
		if name == "aten::conv2d" {
			foundTorch = true
		}
		if name == "SBatchWait_0" {
			foundLotus = true
		}
	}
	if !foundTorch || !foundLotus {
		t.Fatalf("merged trace missing events (torch=%v lotus=%v)", foundTorch, foundLotus)
	}
}

func TestAugmentChromeRejectsGarbage(t *testing.T) {
	if _, err := AugmentChrome([]byte("not json"), nil, Coarse); err == nil {
		t.Fatal("expected error")
	}
}

// TestEndToEndPipelineTrace runs a simulated epoch with the tracer attached
// and validates the log captures the full data flow.
func TestEndToEndPipelineTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	hooks := tr.Hooks()

	sim := clock.NewSim()
	ds := data.NewImageDataset(data.ImageNetConfig(40, 1))
	c := pipeline.NewCompose(
		&pipeline.Loader{IO: data.DefaultIO()},
		&pipeline.RandomResizedCrop{Size: 224},
		&pipeline.RandomHorizontalFlip{},
		&pipeline.ToTensor{},
		&pipeline.Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
	)
	c.Hooks = hooks
	dl := pipeline.NewDataLoader(sim, pipeline.NewImageFolder(ds, c), pipeline.Config{
		BatchSize: 10, NumWorkers: 2, Seed: 1, Hooks: hooks,
		Mode: pipeline.Simulated, Engine: native.NewEngine(native.Intel, native.DefaultCPU()),
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
	a := Analyze(recs)
	if got := len(a.Batches()); got != 4 {
		t.Fatalf("trace contains %d batches, want 4", got)
	}
	stats := a.OpStats()
	if stats["Loader"].Count != 40 || stats["Collate"].Count != 4 {
		t.Fatalf("op counts: Loader=%d Collate=%d", stats["Loader"].Count, stats["Collate"].Count)
	}
	for _, b := range a.Batches() {
		if b.PreDur <= 0 {
			t.Fatalf("batch %d has no preprocessing span", b.ID)
		}
		if b.ConsStart.Before(b.PreEnd()) {
			t.Fatalf("batch %d consumed before preprocessed", b.ID)
		}
		if b.WorkerPID != pipeline.WorkerPID(0) && b.WorkerPID != pipeline.WorkerPID(1) {
			t.Fatalf("batch %d worker pid %d", b.ID, b.WorkerPID)
		}
	}
	// Per-batch preprocessing time must (approximately) contain its ops:
	// each op of that batch falls inside the [T1] span.
	for _, r := range recs {
		if r.Kind != KindOp {
			continue
		}
		var span BatchInfo
		for _, b := range a.Batches() {
			if b.ID == r.BatchID {
				span = b
			}
		}
		if r.Start.Before(span.PreStart) || r.End().After(span.PreEnd().Add(time.Millisecond)) {
			t.Fatalf("op %s of batch %d at %v outside its fetch span [%v, %v]",
				r.Op, r.BatchID, r.Start, span.PreStart, span.PreEnd())
		}
	}
	if FormatOpStats(stats, []string{"Loader", "RandomResizedCrop", "Collate"}) == "" {
		t.Fatal("empty Table II rendering")
	}
}

func TestMetaHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.WriteMeta(map[string]string{"workload": "IC", "batch": "512", "workers": "4"})
	h := tr.Hooks()
	h.OnBatchWait(4000, 0, at(0), time.Millisecond)
	tr.Flush()

	recs, meta, err := ReadLogWithMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records %d", len(recs))
	}
	if meta["workload"] != "IC" || meta["batch"] != "512" || meta["workers"] != "4" {
		t.Fatalf("meta %v", meta)
	}
	// Plain ReadLog skips the header transparently.
	plain, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil || len(plain) != 1 {
		t.Fatalf("ReadLog over meta header: %v, %d records", err, len(plain))
	}
}

func TestWriteMetaAfterRecordsPanics(t *testing.T) {
	tr := NewTracer(io.Discard)
	tr.Hooks().OnBatchWait(4000, 0, at(0), time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.WriteMeta(map[string]string{"a": "b"})
}

func TestReadMetaMalformed(t *testing.T) {
	if _, ok := ReadMeta("# some other comment"); ok {
		t.Fatal("non-header comment accepted")
	}
	m, ok := ReadMeta("# lotustrace v1 a=1 malformed b=2")
	if !ok || m["a"] != "1" || m["b"] != "2" {
		t.Fatalf("meta %v", m)
	}
	if _, exists := m["malformed"]; exists {
		t.Fatal("key without value accepted")
	}
}
