// Command lotus-tune searches the DataLoader worker count for a workload
// using LotusTrace signals (long-wait fraction, accelerator utilization,
// preprocessing CPU seconds) instead of blind end-to-end timing — the
// optimization use the paper's Takeaway 5 motivates.
//
// Usage:
//
//	lotus-tune -workload IC -samples 4096 -batch 128 -gpus 4
//	lotus-tune -workload IC -cpu-budget 600
package main

import (
	"flag"
	"fmt"
	"os"

	"lotus/internal/autotune"
	"lotus/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "IC", "pipeline: IC, ICA, IS, or OD")
		samples  = flag.Int("samples", 2048, "dataset size per candidate run")
		batch    = flag.Int("batch", 0, "batch size (0 = workload default)")
		gpus     = flag.Int("gpus", 0, "GPU count (0 = workload default)")
		minW     = flag.Int("min-workers", 1, "search lower bound")
		maxW     = flag.Int("max-workers", 32, "search upper bound")
		budget   = flag.Float64("cpu-budget", 0, "max preprocessing CPU seconds per epoch (0 = unlimited)")
		seed     = flag.Int64("seed", 1, "randomness root")
	)
	flag.Parse()

	spec, err := workloads.New(workloads.Kind(*workload), *samples, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-tune: %v\n", err)
		os.Exit(2)
	}
	if *batch > 0 {
		spec.BatchSize = *batch
	}
	if *gpus > 0 {
		spec.GPUs = *gpus
	}

	res := autotune.Tune(spec, autotune.Config{
		MinWorkers:       *minW,
		MaxWorkers:       *maxW,
		CPUBudgetSeconds: *budget,
	})
	fmt.Printf("tuning %s (%d samples, batch %d, %d GPUs)\n\n", spec.Kind, spec.NumSamples, spec.BatchSize, spec.GPUs)
	fmt.Print(res.String())
}
