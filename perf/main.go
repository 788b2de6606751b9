// Command perf is the repository's benchmark: four RealData workloads served
// by an in-process loopback serve.Server to two client ranks, checked against
// a local single-process DataLoader run, plus a traced run that measures each
// layer from outside. See README.md in this directory.
//
//	go run ./perf                     all four workloads, writes perf/out/result.json
//	go run ./perf -workload ic_hot    one workload
//	go run ./perf -ladder             traced run: every per-layer metric
//	go run ./perf diff old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

var procStart = time.Now()

// noiseTolerance is how far host.memcpy_MBps may move across a workload
// before the run is marked noisy.
const noiseTolerance = 0.15

// guardReps is how many frame-sized copies one noise-guard reading takes the
// median of: about 0.1 s of copying.
const guardReps = 51

// options are the harness's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	outDir   string
	outFile  string
	commit   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diffMain(os.Args[2:], os.Stdout))
	}
	var o options
	var child, childOpts string
	var ladder bool
	flag.StringVar(&o.workload, "workload", "", "run one workload (ic_cold, ic_hot, ica_warm, ic_spill); default all four")
	flag.Int64Var(&o.seed, "seed", 7, "workload seed: becomes Spec.Seed and picks the verified epochs and batches")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured phase per workload, seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: harness spans on, per-layer metrics reported")
	flag.BoolVar(&ladder, "ladder", false, "traced run (same as -trace 1; traces ic_cold unless -workload names another)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes: 64 samples, 1 warm-up + 2 measured epochs, one set-up")
	flag.StringVar(&o.outDir, "outdir", filepath.Join("perf", "out"), "directory for result, span and disk-tier files")
	flag.StringVar(&o.outFile, "out", "", "result file (default <outdir>/result.json)")
	flag.StringVar(&o.commit, "commit", "", "commit recorded in the result file (default: git rev-parse, else unknown)")
	flag.StringVar(&child, "child", "", "internal: run one workload or the ladder in this process")
	flag.StringVar(&childOpts, "opts", "", "internal: JSON options of the child")
	flag.Parse()

	if child != "" {
		os.Exit(childMain(child, childOpts))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perf: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if ladder {
		o.trace = 1
	}
	if o.trace == 1 && o.workload == "" {
		o.workload = "ic_cold" // the ladder runs ic_cold's inputs
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
	h := &harness{o: o, spawn: func(kind string, opts any, out any) error {
		return spawnChild(exe, kind, opts, out)
	}}
	os.Exit(h.run())
}

// childMain runs one workload or the ladder in this process and prints its
// report as one JSON line.
func childMain(kind, optsJSON string) int {
	var out any
	var err error
	switch kind {
	case "workload":
		var o runOpts
		if err = json.Unmarshal([]byte(optsJSON), &o); err == nil {
			out, err = runWorkload(o, procStart)
		}
	case "ladder":
		var o ladderOpts
		if err = json.Unmarshal([]byte(optsJSON), &o); err == nil {
			out, err = runLadder(o)
		}
	default:
		err = fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf child:", err)
		return 1
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf child:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// spawnChild re-executes the harness binary for one workload or the ladder,
// so CPU time and peak RSS belong to that workload alone, and waits for it.
func spawnChild(exe, kind string, opts any, out any) error {
	arg, err := json.Marshal(opts)
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-child", kind, "-opts", string(arg))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", kind, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	return json.Unmarshal([]byte(lines[len(lines)-1]), out)
}

// harness runs workloads through spawn, which starts a child process in the
// real command and calls in-process in tests.
type harness struct {
	o     options
	spawn func(kind string, opts any, out any) error
}

func (h *harness) runOpts(name string) runOpts {
	ro := runOpts{Workload: name, Seed: h.o.seed, Samples: fullSamples, Seconds: h.o.seconds,
		MinEpochs: 3, OutDir: h.o.outDir}
	if h.o.smoke {
		ro.Samples, ro.Seconds, ro.MinEpochs = smokeSamples, 0, 2
	}
	return ro
}

// setupReps is how many times a workload is set up in one run, each in its
// own process; setup_s is the median. Smoke and traced runs set up once.
const setupReps = 3

// runOne sets the workload up setupReps times (all but the last stop after
// set-up), measures once, and brackets the lot with the host-noise guard.
func (h *harness) runOne(name string, spans bool) (*workloadEntry, error) {
	e := &workloadEntry{Name: name, MemcpyBefore: memcpyMBps(guardReps)}
	ro := h.runOpts(name)
	reps := setupReps
	if h.o.smoke {
		reps = 1
	}
	if spans {
		// A traced run reports per-layer metrics only: one set-up, and half
		// the measured phase, leave the time to the ladder.
		ro.Spans, ro.Seconds, reps = true, ro.Seconds/2, 1
	}
	for i := 1; i < reps; i++ {
		so := ro
		so.SetupOnly = true
		var sr workloadResult
		if err := h.spawn("workload", so, &sr); err != nil {
			return nil, err
		}
		e.SetupSeries = append(e.SetupSeries, sr.SetupS)
	}
	var res workloadResult
	if err := h.spawn("workload", ro, &res); err != nil {
		return nil, err
	}
	e.Run = &res
	e.SetupSeries = append(e.SetupSeries, res.SetupS)
	e.MemcpyAfter = memcpyMBps(guardReps)
	e.Noisy = math.Abs(e.MemcpyAfter-e.MemcpyBefore) > noiseTolerance*e.MemcpyBefore
	e.Metrics = endToEndValues(&res, median(e.SetupSeries))
	return e, nil
}

// run executes the chosen workloads and prints their metrics. A
// single-workload run ends with the one-line JSON result the acceptance
// driver reads: end-to-end metrics, or per-layer metrics when traced.
func (h *harness) run() int {
	single := h.o.workload != ""
	names := []string{h.o.workload}
	if !single {
		names = names[:0]
		for _, w := range allWorkloads {
			names = append(names, w.Name)
		}
	} else if _, ok := findWorkload(h.o.workload); !ok {
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", h.o.workload)
		return 2
	}
	traced := h.o.trace == 1
	rf := &resultFile{Schema: resultSchema, Env: readEnvironment(h.commit()), Seed: h.o.seed,
		Seconds: h.o.seconds, Samples: h.runOpts("").Samples}
	attempted, failed := 0, 0
	for _, name := range names {
		e, err := h.runOne(name, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
		rf.Workloads = append(rf.Workloads, *e)
		attempted += e.Run.Attempted
		failed += e.Run.Failed
		printWorkload(e)
	}
	if traced {
		var lr ladderResult
		lo := ladderOpts{Seed: h.o.seed, Smoke: h.o.smoke, OutDir: h.o.outDir}
		if err := h.spawn("ladder", lo, &lr); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
		rf.PerLayer = perLayerValues(rf.Workloads[0].Run, &lr)
		printPerLayer(rf.PerLayer, &lr)
	}
	out := h.o.outFile
	if out == "" {
		out = filepath.Join(h.o.outDir, "result.json")
	}
	if err := writeResultFile(out, rf); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	fmt.Printf("result file: %s\n", out)
	if single {
		reported := withoutFailedFrac(rf.Workloads[0].Metrics)
		if traced {
			reported = rf.PerLayer
		}
		line, err := json.Marshal(map[string]any{
			"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// withoutFailedFrac drops the one end-to-end metric that is 0 on a healthy
// run: the last-line contract reports failures as counts instead.
func withoutFailedFrac(m map[string]metricValue) map[string]metricValue {
	out := make(map[string]metricValue, len(m))
	for k, v := range m {
		if k != "failed_frac" {
			out[k] = v
		}
	}
	return out
}

func (h *harness) commit() string {
	if h.o.commit != "" {
		return h.o.commit
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printWorkload(e *workloadEntry) {
	r := e.Run
	fmt.Printf("== %s  (%d samples, %d measured epochs over %.1f s, seed %d)\n",
		e.Name, r.Opts.Samples, len(r.Epochs), r.MeasuredS, r.Opts.Seed)
	for _, d := range endToEnd {
		fmt.Printf("   %-20s %12.4f %s\n", d.Name, e.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("   fetches attempted %d, failed %d; %d deliveries compared with the local run\n",
		r.Attempted, r.Failed, r.Verified)
	for _, f := range r.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	if e.Noisy {
		fmt.Printf("   NOISY: host memcpy moved %.0f -> %.0f MB/s across the run\n", e.MemcpyBefore, e.MemcpyAfter)
	}
	if r.Note != "" {
		fmt.Printf("   note: %s\n", r.Note)
	}
}

func printPerLayer(m map[string]metricValue, lr *ladderResult) {
	fmt.Println("== per-layer metrics (traced run)")
	for _, d := range perLayer {
		fmt.Printf("   %-44s %14.4f %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
	for _, n := range lr.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}
