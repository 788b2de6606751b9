package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lotus/internal/workloads"
)

// metricDef names one metric with its unit and direction. Bound is the share
// of the old median by which an end-to-end metric may worsen before diff
// calls it a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a trainer rank or the operator sees. The bounds
// come from the spread of ten runs on ten seeds on the reference host, a
// shared 2-vCPU VM whose compute-bound speed wanders by about ±12 % in waves
// of 5–15 s: ic_cold's timings spread 12–15 % at a 15 s measured phase, and
// the run-time cap rules out a longer one, so the timing bounds sit at the
// contract's ceiling of 25 % rather than ISSUE 11's 10 %. failed_frac
// is last and special: its bound is zero, so it is compared exactly, and it
// is not in BENCHMARK.json's end_to_end list because that contract takes
// failures from the attempted/failed counts instead of a metric that is 0.
var endToEnd = []metricDef{
	{"samples_per_s", "samples/s", "higher", 0.25},
	{"first_batch_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_sample", "ms", "lower", 0.25},
	{"peak_rss_MB", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"failed_frac", "ratio", "lower", 0},
}

const resultSchema = 1

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadEntry is one workload's block of the result file: the six
// end-to-end metrics, the host-noise guard readings, every set-up time taken,
// and the workload process's raw report (per-epoch series included).
type workloadEntry struct {
	Name         string                 `json:"name"`
	Noisy        bool                   `json:"noisy"`
	MemcpyBefore float64                `json:"host_memcpy_MBps_before"`
	MemcpyAfter  float64                `json:"host_memcpy_MBps_after"`
	Metrics      map[string]metricValue `json:"metrics"`
	SetupSeries  []float64              `json:"setup_s_series"`
	Run          *workloadResult        `json:"run"`
}

// resultFile is what `go run ./perf` writes and `go run ./perf diff` reads.
type resultFile struct {
	Schema    int                    `json:"schema"`
	Env       environment            `json:"environment"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Samples   int                    `json:"samples"`
	Workloads []workloadEntry        `json:"workloads"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

func (f *resultFile) workload(name string) *workloadEntry {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i]
		}
	}
	return nil
}

func writeResultFile(path string, f *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %d, this harness reads schema %d", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// endToEndValues maps a workload run to its six end-to-end metrics.
func endToEndValues(r *workloadResult, setupS float64) map[string]metricValue {
	vals := map[string]float64{
		"samples_per_s":     r.SamplesPerS,
		"first_batch_ms":    r.FirstBatchMs,
		"cpu_ms_per_sample": r.CPUMsPerSamp,
		"peak_rss_MB":       r.PeakRSSMB,
		"setup_s":           setupS,
		"failed_frac":       r.FailedFrac,
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		out[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return out
}

// perLayer are the metrics of single layers, named after the repo's packages.
// They carry no bound: they say where an end-to-end change came from. The
// README's table says which end-to-end metric each should move, and where.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"host.memcpy_MBps", "MB/s", "higher", 0},
		{"host.loopback_MBps", "MB/s", "higher", 0},
		{"host.fnv64a_MBps", "MB/s", "higher", 0},
		{"imaging.synth_ns_per_px", "ns", "lower", 0},
		{"imaging.sjpg_encode_ns_per_px", "ns", "lower", 0},
		{"imaging.sjpg_decode_ns_per_px", "ns", "lower", 0},
		{"imaging.resize_ns_per_px", "ns", "lower", 0},
		{"tensor.normalize_ns_per_elem", "ns", "lower", 0},
		{"tensor.stack_MBps", "MB/s", "higher", 0},
		{"pipeline.compose_ms_per_sample.IC", "ms", "lower", 0},
		{"pipeline.compose_ms_per_sample.ICA", "ms", "lower", 0},
		{"pipeline.compose_ms_per_sample.OD", "ms", "lower", 0},
		{"pipeline.compose_ms_per_sample.IS", "ms", "lower", 0},
	}
	for _, kind := range []workloads.Kind{workloads.IC, workloads.ICA} {
		for _, op := range (workloads.Spec{Kind: kind}).OpOrder() {
			defs = append(defs, metricDef{fmt.Sprintf("pipeline.op_ms.%s.%s", kind, op), "ms", "lower", 0})
		}
	}
	return append(defs, []metricDef{
		{"pipeline.loader_input_synth_frac", "ratio", "lower", 0},
		{"pipeline.io_sleep_ms_per_sample", "ms", "lower", 0},
		{"pipeline.prefix_ms_per_sample", "ms", "lower", 0},
		{"pipeline.suffix_ms_per_sample", "ms", "lower", 0},
		{"pipeline.loader_samples_per_s.w1", "samples/s", "higher", 0},
		{"pipeline.loader_samples_per_s.w2", "samples/s", "higher", 0},
		{"pipeline.loader_scaling", "ratio", "higher", 0},
		{"pipeline.samplecache_hit_frac", "ratio", "higher", 0},
		{"pipeline.samplecache_evicted", "count", "lower", 0},
		{"serve.encode_MBps", "MB/s", "higher", 0},
		{"serve.decode_MBps", "MB/s", "higher", 0},
		{"serve.frame_io_MBps", "MB/s", "higher", 0},
		{"serve.cold_samples_per_s", "samples/s", "higher", 0},
		{"serve.cold_overhead_frac", "ratio", "lower", 0},
		{"serve.hot_MBps", "MB/s", "higher", 0},
		{"serve.hot_frac_of_loopback", "ratio", "higher", 0},
		{"serve.batchcache_hit_frac", "ratio", "higher", 0},
		{"serve.batchcache_evicted", "count", "lower", 0},
		{"serve.singleflight_waits", "count", "lower", 0},
		{"serve.wait_ms_per_batch", "ms", "lower", 0},
		{"serve.delay_ms_per_batch", "ms", "lower", 0},
		{"serve.writev_frames_per_call", "ratio", "higher", 0},
		{"serve.disk_warm_samples_per_s", "samples/s", "higher", 0},
		{"store.put_MBps", "MB/s", "higher", 0},
		{"store.get_MBps", "MB/s", "higher", 0},
		{"store.disk_hit_frac", "ratio", "higher", 0},
		{"store.spills_dropped", "count", "lower", 0},
		{"cluster.hot_samples_per_s.n1", "samples/s", "higher", 0},
		{"cluster.hot_samples_per_s.n3", "samples/s", "higher", 0},
		{"cluster.route_overhead_frac", "ratio", "lower", 0},
		{"cluster.node_share_max", "ratio", "lower", 0},
		{"cluster.rounds_per_epoch", "count", "lower", 0},
		{"client.batch_gap_p50_ms", "ms", "lower", 0},
		{"client.batch_gap_tail_ms", "ms", "lower", 0},
		{"client.verify_MBps", "MB/s", "higher", 0},
		{"ladder.cpu_ms_per_sample.imaging", "ms", "lower", 0},
		{"ladder.cpu_ms_per_sample.pipeline.compose", "ms", "lower", 0},
		{"ladder.cpu_ms_per_sample.pipeline.collate", "ms", "lower", 0},
		{"ladder.cpu_ms_per_sample.serve.encode", "ms", "lower", 0},
		{"ladder.cpu_ms_per_sample.serve.write", "ms", "lower", 0},
		{"ladder.cpu_ms_per_sample.client.read_decode", "ms", "lower", 0},
		{"ladder.cpu_ms_per_sample.client.verify", "ms", "lower", 0},
		{"ladder.cold_residual_frac", "ratio", "lower", 0},
		{"trace.overhead_frac", "ratio", "lower", 0},
	}...)
}()

// perLayerValues joins the traced workload's own layer metrics with the
// ladder's into one value per perLayer entry. A counter that does not exist
// on the traced workload (the sample cache's on ic_hot, say) reads 0.
func perLayerValues(r *workloadResult, lr *ladderResult) map[string]metricValue {
	out := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		v, ok := lr.Metrics[d.Name]
		if !ok {
			v = r.Layers[d.Name]
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out
}
