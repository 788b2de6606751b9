package trace

import (
	"strings"
	"testing"
	"time"
)

// mkBatch appends the three records of one batch with the given timings.
func mkBatch(recs []Record, id, worker int, preStart, preDur, waitDur, consAt time.Duration) []Record {
	return append(recs,
		Record{Kind: KindBatchPreprocessed, PID: 4001 + worker, BatchID: id, SampleIndex: -1, Start: at(preStart), Dur: preDur},
		Record{Kind: KindBatchWait, PID: 4000, BatchID: id, SampleIndex: -1, Start: at(consAt - waitDur), Dur: waitDur},
		Record{Kind: KindBatchConsumed, PID: 4000, BatchID: id, SampleIndex: -1, Start: at(consAt), Dur: time.Millisecond},
	)
}

func hasRule(fs []Finding, rule string) bool {
	for _, f := range fs {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

func TestAdvisorPreprocessingBound(t *testing.T) {
	var recs []Record
	for i := 0; i < 10; i++ {
		base := time.Duration(i) * 2 * time.Second
		recs = mkBatch(recs, i, 0, base, 1900*time.Millisecond, 1800*time.Millisecond, base+1950*time.Millisecond)
	}
	fs := Analyze(recs).Advise(AdvisorConfig{})
	if !hasRule(fs, "preprocessing-bound") {
		t.Fatalf("expected preprocessing-bound finding, got %v", fs)
	}
	if fs[0].Severity != Critical {
		t.Fatalf("preprocessing-bound should be critical and first, got %v", fs[0])
	}
	if hasRule(fs, "gpu-bound") {
		t.Fatal("cannot be both preprocessing- and gpu-bound")
	}
}

func TestAdvisorGPUBound(t *testing.T) {
	var recs []Record
	for i := 0; i < 10; i++ {
		// Preprocessed immediately, consumed 3s later, tiny wait.
		base := time.Duration(i) * 100 * time.Millisecond
		recs = mkBatch(recs, i, i%4, base, 80*time.Millisecond, NoWaitMarker, base+3*time.Second)
	}
	fs := Analyze(recs).Advise(AdvisorConfig{})
	if !hasRule(fs, "gpu-bound") {
		t.Fatalf("expected gpu-bound finding, got %v", fs)
	}
	if hasRule(fs, "preprocessing-bound") {
		t.Fatal("unexpected preprocessing-bound")
	}
	// 1µs waits mark OOO arrivals, so the OOO rule fires too.
	if !hasRule(fs, "out-of-order-arrivals") {
		t.Fatalf("expected OOO finding, got %v", fs)
	}
}

func TestAdvisorHighVariance(t *testing.T) {
	var recs []Record
	durs := []time.Duration{100, 100, 100, 900, 100, 950, 100, 100}
	for i, d := range durs {
		base := time.Duration(i) * time.Second
		recs = mkBatch(recs, i, 0, base, d*time.Millisecond, 10*time.Millisecond, base+990*time.Millisecond)
	}
	fs := Analyze(recs).Advise(AdvisorConfig{})
	if !hasRule(fs, "high-batch-variance") {
		t.Fatalf("expected variance warning, got %v", fs)
	}
}

func TestAdvisorDominantOperation(t *testing.T) {
	recs := []Record{
		{Kind: KindOp, PID: 4001, BatchID: 0, SampleIndex: 0, Op: "Loader", Start: at(0), Dur: 9 * time.Second},
		{Kind: KindOp, PID: 4001, BatchID: 0, SampleIndex: 0, Op: "ToTensor", Start: at(0), Dur: time.Second},
	}
	recs = mkBatch(recs, 0, 0, 0, 10*time.Second, 10*time.Millisecond, 10*time.Second+time.Millisecond)
	fs := Analyze(recs).Advise(AdvisorConfig{})
	if !hasRule(fs, "dominant-operation") {
		t.Fatalf("expected dominant-operation finding, got %v", fs)
	}
	found := false
	for _, f := range fs {
		if f.Rule == "dominant-operation" && strings.Contains(f.Detail, "Loader") {
			found = true
		}
	}
	if !found {
		t.Fatal("dominant-operation should name Loader")
	}
}

func TestAdvisorEmptyTrace(t *testing.T) {
	fs := Analyze(nil).Advise(AdvisorConfig{})
	if len(fs) != 1 || fs[0].Rule != "empty-trace" {
		t.Fatalf("empty analysis should yield the empty-trace finding, got %v", fs)
	}
}

func TestAdvisorHealthyPipelineQuiet(t *testing.T) {
	var recs []Record
	// Balanced: modest waits, modest delays, uniform batches, two ops.
	for i := 0; i < 10; i++ {
		base := time.Duration(i) * time.Second
		recs = mkBatch(recs, i, i%2, base, 400*time.Millisecond, 50*time.Millisecond, base+500*time.Millisecond)
		recs = append(recs,
			Record{Kind: KindOp, PID: 4001, BatchID: i, SampleIndex: i, Op: "Loader", Start: at(base), Dur: 200 * time.Millisecond},
			Record{Kind: KindOp, PID: 4001, BatchID: i, SampleIndex: i, Op: "Resize", Start: at(base), Dur: 200 * time.Millisecond},
		)
	}
	fs := Analyze(recs).Advise(AdvisorConfig{})
	for _, f := range fs {
		if f.Severity == Critical {
			t.Fatalf("healthy pipeline produced critical finding: %+v", f)
		}
	}
}

func TestFormatFindings(t *testing.T) {
	if got := FormatFindings(nil); !strings.Contains(got, "healthy") {
		t.Fatalf("empty findings rendering: %q", got)
	}
	out := FormatFindings([]Finding{{Severity: Critical, Rule: "x", Detail: "y"}})
	if !strings.Contains(out, "critical") || !strings.Contains(out, "x") {
		t.Fatalf("rendering: %q", out)
	}
}

func TestDiffAnalyses(t *testing.T) {
	mkRun := func(loaderMs, waitMs int) *Analysis {
		var recs []Record
		for i := 0; i < 10; i++ {
			base := time.Duration(i) * time.Second
			recs = append(recs, Record{Kind: KindOp, PID: 4001, BatchID: i, SampleIndex: i, Op: "Loader",
				Start: at(base), Dur: time.Duration(loaderMs) * time.Millisecond})
			recs = mkBatch(recs, i, 0, base, time.Duration(loaderMs)*time.Millisecond,
				time.Duration(waitMs)*time.Millisecond, base+900*time.Millisecond)
		}
		return Analyze(recs)
	}
	before := mkRun(200, 600)
	after := mkRun(100, 100)
	d := DiffAnalyses(before, after)

	var loaderRow *DiffRow
	for i := range d.Ops {
		if d.Ops[i].Op == "Loader" {
			loaderRow = &d.Ops[i]
		}
	}
	if loaderRow == nil {
		t.Fatal("missing Loader row")
	}
	if loaderRow.Ratio < 0.45 || loaderRow.Ratio > 0.55 {
		t.Fatalf("Loader ratio %.2f, want ~0.5", loaderRow.Ratio)
	}
	if d.WaitFracBefore != 1.0 || d.WaitFracAfter != 0.0 {
		t.Fatalf("wait fracs %v -> %v", d.WaitFracBefore, d.WaitFracAfter)
	}
	if d.CPUSecondsAfter >= d.CPUSecondsBefore {
		t.Fatal("cpu seconds should drop")
	}
	out := d.Render()
	if !strings.Contains(out, "Loader") || !strings.Contains(out, "0.50x") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestDiffHandlesDisjointOps(t *testing.T) {
	a := Analyze([]Record{{Kind: KindOp, PID: 1, BatchID: 0, Op: "OldOp", Start: at(0), Dur: time.Millisecond}})
	b := Analyze([]Record{{Kind: KindOp, PID: 1, BatchID: 0, Op: "NewOp", Start: at(0), Dur: time.Millisecond}})
	d := DiffAnalyses(a, b)
	if len(d.Ops) != 2 {
		t.Fatalf("ops %v", d.Ops)
	}
	for _, row := range d.Ops {
		if row.Op == "NewOp" && row.Ratio != 0 {
			t.Fatal("new op should have no ratio (no baseline)")
		}
	}
}

func TestWorkerUtilizationAndImbalanceRule(t *testing.T) {
	var recs []Record
	// Worker 0 does 3 heavy batches, worker 1 one light one.
	recs = mkBatch(recs, 0, 0, 0, 900*time.Millisecond, 10*time.Millisecond, 950*time.Millisecond)
	recs = mkBatch(recs, 1, 1, 0, 200*time.Millisecond, 10*time.Millisecond, 1200*time.Millisecond)
	recs = mkBatch(recs, 2, 0, time.Second, 900*time.Millisecond, 10*time.Millisecond, 1950*time.Millisecond)
	recs = mkBatch(recs, 3, 0, 2*time.Second, 900*time.Millisecond, 10*time.Millisecond, 2950*time.Millisecond)
	a := Analyze(recs)
	util := a.WorkerUtilization()
	if len(util.PerWorker) != 2 {
		t.Fatalf("workers %v", util.PerWorker)
	}
	if util.Imbalance < 10 {
		t.Fatalf("imbalance %.1f, want ~13.5 (2.7s vs 0.2s)", util.Imbalance)
	}
	if util.PerWorker[4001] <= util.PerWorker[4002] {
		t.Fatal("worker 0 (pid 4001) should be the busy one")
	}
	if !hasRule(a.Advise(AdvisorConfig{}), "worker-imbalance") {
		t.Fatal("advisor missed the imbalance")
	}
}

func TestWorkerUtilizationBalancedQuiet(t *testing.T) {
	var recs []Record
	for i := 0; i < 8; i++ {
		base := time.Duration(i/2) * time.Second
		recs = mkBatch(recs, i, i%2, base, 450*time.Millisecond, 10*time.Millisecond, base+500*time.Millisecond)
	}
	a := Analyze(recs)
	if util := a.WorkerUtilization(); util.Imbalance > 1.1 {
		t.Fatalf("balanced run reports imbalance %.2f", util.Imbalance)
	}
	if hasRule(a.Advise(AdvisorConfig{}), "worker-imbalance") {
		t.Fatal("false-positive imbalance finding")
	}
}

func TestWelchSignificance(t *testing.T) {
	mk := func(base, spread time.Duration, n int, shift time.Duration) *Analysis {
		var recs []Record
		for i := 0; i < n; i++ {
			d := base + shift + time.Duration(i%5)*spread
			recs = append(recs, Record{Kind: KindOp, PID: 1, BatchID: i, SampleIndex: i,
				Op: "Loader", Start: at(time.Duration(i) * time.Second), Dur: d})
		}
		return Analyze(recs)
	}
	// Clear shift vs noise: 5ms mean move on ~0.3ms spread, n=50.
	sig := DiffAnalyses(
		mk(10*time.Millisecond, 100*time.Microsecond, 50, 0),
		mk(10*time.Millisecond, 100*time.Microsecond, 50, 5*time.Millisecond),
	)
	if !sig.Ops[0].Significant {
		t.Fatalf("obvious 50%% shift not significant: %+v", sig.Ops[0])
	}
	// No shift at all: same distribution twice.
	same := DiffAnalyses(
		mk(10*time.Millisecond, 2*time.Millisecond, 50, 0),
		mk(10*time.Millisecond, 2*time.Millisecond, 50, 0),
	)
	if same.Ops[0].Significant {
		t.Fatalf("identical distributions flagged significant: %+v", same.Ops[0])
	}
	// Tiny sample: never significant.
	tiny := DiffAnalyses(
		mk(10*time.Millisecond, time.Millisecond, 1, 0),
		mk(10*time.Millisecond, time.Millisecond, 1, 5*time.Millisecond),
	)
	if tiny.Ops[0].Significant {
		t.Fatal("n=1 flagged significant")
	}
}

func TestOpStatStd(t *testing.T) {
	var recs []Record
	for i, d := range []time.Duration{100, 200, 300, 400} {
		recs = append(recs, Record{Kind: KindOp, PID: 1, BatchID: 0, SampleIndex: i,
			Op: "X", Start: at(0), Dur: d * time.Millisecond})
	}
	st := Analyze(recs).OpStats()["X"]
	// Population std of {100,200,300,400}ms is ~111.8ms.
	want := 111800 * time.Microsecond
	if st.Std < want-time.Millisecond || st.Std > want+time.Millisecond {
		t.Fatalf("Std %v, want ~%v", st.Std, want)
	}
}
