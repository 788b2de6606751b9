package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// method the acceptance driver uses for its spread check.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3, ok := quartiles(c.in)
		if !ok || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.in, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	if got := spreadFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("spreadFrac = %v, want 1.0", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	if got := tailPercentile(nil); got.N != 0 {
		t.Errorf("empty tail = %+v", got)
	}
	// Below 20 observations nothing above the median has ten beyond it.
	small := make([]float64, 19)
	for i := range small {
		small[i] = float64(i + 1)
	}
	if got := tailPercentile(small); got.Percentile != 50 || !near(got.Value, 10) {
		t.Errorf("tail of 19 = %+v, want p50 = 10", got)
	}
	// 100 observations 1..100: p90 is 90, with 91..100 beyond it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	got := tailPercentile(xs)
	if !near(got.Percentile, 90) || !near(got.Value, 90) || got.N != 100 {
		t.Errorf("tail of 100 = %+v, want p90 = 90", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d observations beyond the tail value, want 10", beyond)
	}
	// 1000 observations reach p99.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := tailPercentile(big); !near(got.Percentile, 99) || !near(got.Value, 990) {
		t.Errorf("tail of 1000 = %+v, want p99 = 990", got)
	}
}

func TestWorseByDirection(t *testing.T) {
	if got := worseBy("higher", 100, 80); !near(got, 0.2) {
		t.Errorf("higher-is-better drop = %v, want 0.2", got)
	}
	if got := worseBy("higher", 100, 120); !near(got, -0.2) {
		t.Errorf("higher-is-better gain = %v, want -0.2", got)
	}
	if got := worseBy("lower", 10, 12); !near(got, 0.2) {
		t.Errorf("lower-is-better rise = %v, want 0.2", got)
	}
	if got := worseBy("lower", 0, 0.1); !math.IsInf(got, 1) {
		t.Errorf("rise from zero = %v, want +Inf", got)
	}
	if got := worseBy("lower", 0, 0); got != 0 {
		t.Errorf("zero to zero = %v, want 0", got)
	}
}

func TestJudgeBoundsAndSpread(t *testing.T) {
	sps := metricDef{"samples_per_s", "samples/s", "higher", 0.10} // the rule, whatever the shipped bound
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 0.995} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	for _, c := range []struct {
		name       string
		old, new   float64
		oldS, newS []float64
		want       string
	}{
		{"within bound", 100, 95, tight(100), tight(95), verdictPass},
		{"beyond bound", 100, 85, tight(100), tight(85), verdictRegression},
		{"better", 100, 130, tight(100), tight(130), verdictPass},
		{"wide spread, overlapping", 100, 85, wide(100), wide(85), verdictUnresolved},
		{"wide spread, same median", 100, 100, wide(100), wide(100), verdictUnresolved},
		{"wide spread, separated worse", 100, 40, wide(100), wide(40), verdictRegression},
		{"wide spread, separated better", 100, 250, wide(100), wide(250), verdictPass},
	} {
		if got, _, _ := judge(sps, c.old, c.new, c.oldS, c.newS); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	ff := metricDef{"failed_frac", "ratio", "lower", 0}
	if got, _, _ := judge(ff, 0, 0, nil, nil); got != verdictPass {
		t.Errorf("failed_frac 0 -> 0: %q", got)
	}
	if got, _, _ := judge(ff, 0, 0.01, nil, nil); got != verdictRegression {
		t.Errorf("failed_frac 0 -> 0.01: %q, want regression", got)
	}
}

// fakeResult builds a result file with one workload at the given throughput.
func fakeResult(sps float64, failed int, noisy bool) *resultFile {
	run := &workloadResult{Opts: runOpts{Workload: "ic_cold", Seed: 7, Samples: 512},
		SamplesPerS: sps, FirstBatchMs: 500, CPUMsPerSamp: 7, PeakRSSMB: 1000,
		Attempted: 10, Failed: failed, FailedFrac: float64(failed) / 10,
		Layers: map[string]float64{"client.batch_gap_p50_ms": 100}}
	for i := 0; i < 5; i++ {
		wall := 512 / sps * (1 + 0.004*float64(i-2))
		run.Epochs = append(run.Epochs, epochRecord{Epoch: 1 + i, WallS: wall, CPUS: 3.5, Samples: 512,
			Bytes: 308 << 20, FirstBatchMs: [world]float64{499, 501}})
	}
	e := workloadEntry{Name: "ic_cold", Noisy: noisy, MemcpyBefore: 9000, MemcpyAfter: 9100,
		SetupSeries: []float64{2.9, 3.0, 3.1}, Run: run}
	e.Metrics = endToEndValues(run, median(e.SetupSeries))
	return &resultFile{Schema: resultSchema, Env: readEnvironment("test"), Seed: 7, Seconds: 30,
		Samples: 512, Workloads: []workloadEntry{e}}
}

func TestResultFileRoundTrip(t *testing.T) {
	want := fakeResult(300, 0, false)
	want.PerLayer = map[string]metricValue{"host.memcpy_MBps": {9000, "MB/s"}}
	path := filepath.Join(t.TempDir(), "sub", "result.json")
	if err := writeResultFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	// Every end-to-end metric is present with its unit, and the raw
	// per-epoch series survives.
	e := got.workload("ic_cold")
	for _, d := range endToEnd {
		if mv, ok := e.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
			t.Errorf("metric %s: %+v, want unit %s", d.Name, mv, d.Unit)
		}
	}
	if len(e.Run.Epochs) != 5 || e.Run.Epochs[0].CPUS != 3.5 {
		t.Errorf("per-epoch series lost: %+v", e.Run.Epochs)
	}
	// A file of another schema is refused, not misread.
	data, _ := os.ReadFile(path)
	other := bytes.Replace(data, []byte(`"schema": 1`), []byte(`"schema": 99`), 1)
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, other, 0o644)
	if _, err := readResultFile(bad); err == nil {
		t.Error("schema 99 was accepted")
	}
}

func TestDiffVerdictsAndExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		p := filepath.Join(dir, name)
		if err := writeResultFile(p, f); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", fakeResult(300, 0, false))
	for _, c := range []struct {
		name string
		new  *resultFile
		code int
		want string
	}{
		{"same", fakeResult(300, 0, false), 0, "no regression"},
		{"slower within bound", fakeResult(285, 0, false), 0, "no regression"},
		{"slower beyond bound", fakeResult(200, 0, false), 1, verdictRegression},
		{"failed fetches", fakeResult(300, 1, false), 1, verdictRegression},
		{"noisy host hides the slowdown", fakeResult(200, 0, true), 0, verdictNoisy},
		{"noisy host does not hide failures", fakeResult(300, 1, true), 1, verdictRegression},
	} {
		var out bytes.Buffer
		code := diffMain([]string{base, write("new.json", c.new)}, &out)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
	var out bytes.Buffer
	if code := diffMain([]string{base}, &out); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	if code := diffMain([]string{base, filepath.Join(dir, "absent.json")}, &out); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// TestBenchmarkJSONMatchesHarness keeps the contract file and the harness's
// own tables from drifting apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, harness has %s: %s", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	// failed_frac is the harness's sixth metric but is 0 on a healthy run;
	// the contract takes failures from attempted/failed instead.
	want := endToEnd[:len(endToEnd)-1]
	if len(bj.EndToEnd) != len(want) {
		t.Fatalf("end_to_end: %d entries, want %d", len(bj.EndToEnd), len(want))
	}
	for i, d := range want {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, got, d)
		}
		if got.Bound != d.Bound || got.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v, harness has %v (contract ceiling 0.25)", d.Name, got.Bound, d.Bound)
		}
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness's table:\n got %+v\nwant %+v", bj.PerLayer, perLayer)
	}
}

// inProcess stands in for the child processes of the real command.
func inProcess(t *testing.T) func(kind string, opts, out any) error {
	return func(kind string, opts, out any) error {
		arg, err := json.Marshal(opts)
		if err != nil {
			return err
		}
		var res any
		switch kind {
		case "workload":
			var o runOpts
			if err := json.Unmarshal(arg, &o); err != nil {
				return err
			}
			res, err = runWorkload(o, time.Now())
		case "ladder":
			var o ladderOpts
			if err := json.Unmarshal(arg, &o); err != nil {
				return err
			}
			res, err = runLadder(o)
		}
		if err != nil {
			return err
		}
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, out)
	}
}

// TestSmokeSuite is the -smoke mode: all four workloads at 64 samples, one
// warm-up schedule and two measured epochs each, every fetch byte-checked.
func TestSmokeSuite(t *testing.T) {
	dir := t.TempDir()
	h := &harness{o: options{seed: 7, smoke: true, outDir: dir, commit: "test"}, spawn: inProcess(t)}
	if code := h.run(); code != 0 {
		t.Fatalf("smoke suite exited %d", code)
	}
	rf, err := readResultFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		e := rf.workload(w.Name)
		if e == nil {
			t.Fatalf("workload %s missing from the result", w.Name)
		}
		r := e.Run
		if r.Failed != 0 || r.Attempted == 0 || r.Verified == 0 {
			t.Errorf("%s: attempted %d, failed %d, compared %d: %v", w.Name, r.Attempted, r.Failed, r.Verified, r.Failures)
		}
		if len(r.Epochs) != 2 {
			t.Errorf("%s: %d measured epochs, want 2", w.Name, len(r.Epochs))
		}
		for _, d := range endToEnd[:len(endToEnd)-1] {
			if v := e.Metrics[d.Name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, v)
			}
		}
	}
	// Each workload must use the layers it was chosen for.
	if v := rf.workload("ic_hot").Run.Layers["serve.batchcache_hit_frac"]; v < 0.5 {
		t.Errorf("ic_hot batch-cache hit fraction %v", v)
	}
	if v := rf.workload("ica_warm").Run.Layers["pipeline.samplecache_hit_frac"]; v < 0.5 {
		t.Errorf("ica_warm sample-cache hit fraction %v", v)
	}
	spill := rf.workload("ic_spill").Run.Layers
	if spill["store.disk_hit_frac"] <= 0 || spill["serve.batchcache_evicted"] <= 0 {
		t.Errorf("ic_spill did not reach the disk tier: %v", spill)
	}
	if _, ok := rf.workload("ic_cold").Run.Layers["serve.batchcache_hit_frac"]; ok {
		t.Error("ic_cold ran with a batch cache")
	}
}

// TestFlippedByteFails is the verifier's negative test: with one payload byte
// flipped on its way to the check, fetches must be counted failed.
func TestFlippedByteFails(t *testing.T) {
	o := runOpts{Workload: "ic_hot", Seed: 7, Samples: smokeSamples, MinEpochs: 2, OutDir: t.TempDir(), flipByte: true}
	res, err := runWorkload(o, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.FailedFrac <= 0 {
		t.Fatalf("flipped payload byte went unnoticed: attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if len(res.Failures) == 0 || !strings.Contains(res.Failures[0], "tensor differs from the local run") {
		t.Errorf("failures do not name the tensor mismatch: %v", res.Failures)
	}
}

// TestSmokeLadder runs the traced layer ladder at smoke sizes and checks that
// every per-layer metric is reported and the span file is written.
func TestSmokeLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("ladder smoke run skipped in -short mode")
	}
	dir := t.TempDir()
	h := &harness{o: options{seed: 7, smoke: true, trace: 1, workload: "ic_cold", outDir: dir, commit: "test"},
		spawn: inProcess(t)}
	if code := h.run(); code != 0 {
		t.Fatalf("smoke ladder exited %d", code)
	}
	rf, err := readResultFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		mv, ok := rf.PerLayer[d.Name]
		if !ok || mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("per-layer metric %s: %+v (present %v)", d.Name, mv, ok)
		}
	}
	for _, name := range []string{"host.memcpy_MBps", "imaging.sjpg_decode_ns_per_px", "pipeline.op_ms.IC.Loader",
		"pipeline.op_ms.IC.Collate", "serve.hot_MBps", "store.get_MBps", "cluster.hot_samples_per_s.n3",
		"ladder.cpu_ms_per_sample.imaging"} {
		if rf.PerLayer[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, rf.PerLayer[name].Value)
		}
	}
	for _, f := range []string{"ladder-trace.json", "ic_cold-trace.json"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string
				Args map[string]int
			}
		}
		if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: %d spans, err %v", f, len(tr.TraceEvents), err)
		}
	}
}
