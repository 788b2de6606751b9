// Command lotus-run executes one simulated training epoch of an MLPerf
// pipeline with LotusTrace attached and writes the trace log.
//
// Usage:
//
//	lotus-run -workload IC -samples 10000 -batch 512 -workers 4 -gpus 4 \
//	          -log run.lotustrace
//
// The written log is the input to lotus-viz and to the analyses; a summary
// (per-op statistics, wait/delay, bottleneck verdict) is printed on stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lotus/internal/core/trace"
	"lotus/internal/gpusim"
	"lotus/internal/native"
	"lotus/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "IC", "pipeline: IC, ICA, IS, or OD")
		samples  = flag.Int("samples", 5120, "dataset size")
		batch    = flag.Int("batch", 0, "batch size (0 = workload default)")
		workers  = flag.Int("workers", 0, "DataLoader workers (0 = workload default)")
		gpus     = flag.Int("gpus", 0, "GPU count (0 = workload default)")
		seed     = flag.Int64("seed", 1, "randomness root")
		arch     = flag.String("arch", "intel", "simulated CPU vendor: intel or amd")
		logPath  = flag.String("log", "run.lotustrace", "LotusTrace log output path")
		epochs   = flag.Int("epochs", 1, "training epochs (batch IDs offset per epoch)")
	)
	flag.Parse()

	spec, err := workloads.New(workloads.Kind(*workload), *samples, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-run: %v\n", err)
		os.Exit(2)
	}
	if *batch > 0 {
		spec.BatchSize = *batch
	}
	if *workers > 0 {
		spec.NumWorkers = *workers
	}
	if *gpus > 0 {
		spec.GPUs = *gpus
	}
	if *arch == "amd" {
		spec.Arch = native.AMD
	}

	out, err := os.Create(*logPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-run: %v\n", err)
		os.Exit(1)
	}
	defer out.Close()

	tracer := trace.NewTracer(out)
	tracer.WriteMeta(map[string]string{
		"workload": string(spec.Kind),
		"samples":  fmt.Sprint(spec.NumSamples),
		"batch":    fmt.Sprint(spec.BatchSize),
		"workers":  fmt.Sprint(spec.NumWorkers),
		"gpus":     fmt.Sprint(spec.GPUs),
		"seed":     fmt.Sprint(spec.Seed),
		"arch":     spec.Arch.String(),
	})
	var stats gpusim.EpochStats
	if *epochs > 1 {
		all, _, _ := spec.RunEpochs(tracer.Hooks(), *epochs)
		for _, s := range all {
			stats.Batches += s.Batches
			stats.Elapsed += s.Elapsed
			stats.GPUBusy += s.GPUBusy
			stats.GPUIdle += s.GPUIdle
			stats.MainWaitTime += s.MainWaitTime
		}
	} else {
		stats, _, _ = spec.Run(tracer.Hooks())
	}
	if err := tracer.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "lotus-run: flush: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("workload %s: %d samples, batch %d, %d workers, %d GPUs (%s)\n",
		spec.Kind, spec.NumSamples, spec.BatchSize, spec.NumWorkers, spec.GPUs, spec.Arch)
	fmt.Printf("epoch: %v simulated; %d batches; GPU utilization %.1f%%; main wait %v\n",
		stats.Elapsed.Round(time.Millisecond), stats.Batches,
		100*stats.GPUUtilization(), stats.MainWaitTime.Round(time.Millisecond))
	fmt.Printf("trace: %d records, %d bytes -> %s\n\n", tracer.Records(), tracer.Bytes(), *logPath)

	// Reload and summarize, demonstrating the log is self-contained.
	f, err := os.Open(*logPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-run: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	recs, err := trace.ReadLog(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-run: parse: %v\n", err)
		os.Exit(1)
	}
	a := trace.Analyze(recs)
	fmt.Println(trace.FormatOpStats(a.OpStats(), spec.OpOrder()))
	fmt.Printf("waits > 500ms: %.1f%%   delays > 500ms: %.1f%%   out-of-order batches: %d\n",
		100*a.WaitsOver(500*time.Millisecond), 100*a.DelaysOver(500*time.Millisecond),
		len(a.OutOfOrderBatches()))
}
