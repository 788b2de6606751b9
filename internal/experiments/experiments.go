// Package experiments regenerates every table and figure of the paper's
// evaluation (§ V and § VI) on the simulated substrate. Each experiment is a
// pure function from a Scale to a typed result whose Render method prints
// the same rows/series the paper reports, side by side with the paper's
// values where the paper states them.
//
// Absolute numbers are not expected to match — the substrate is a calibrated
// simulator, not the authors' testbed — but the shapes are: which operation
// dominates, which pipeline is GPU-bound, where the diminishing returns
// start, who has the smallest overhead.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"lotus/internal/native"

	"lotus/internal/core/trace"
	"lotus/internal/workloads"
)

// Scale selects how much data an experiment processes. Small keeps unit
// tests fast; Full is what cmd/lotus-bench and the benchmarks run.
type Scale int

const (
	Small Scale = iota
	Full
)

// samples scales a dataset size by the Scale.
func (s Scale) samples(small, full int) int {
	if s == Full {
		return full
	}
	return small
}

// Result is what every experiment returns.
type Result interface {
	// Render prints the experiment's rows in the paper's shape.
	Render() string
}

// Experiment binds an ID (the paper artifact it regenerates) to its runner.
type Experiment struct {
	// ID names the artifact: "table1" .. "table4", "fig2" .. "fig6".
	ID string
	// Title is the paper artifact's caption, abbreviated.
	Title string
	// Run executes the experiment.
	Run func(Scale) Result
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Mapping of Python functions to C/C++ functions (Intel & AMD)", Run: func(s Scale) Result { return RunTable1(s) }},
		{ID: "table2", Title: "Per-operation elapsed time statistics for IC/IS/OD", Run: func(s Scale) Result { return RunTable2(s) }},
		{ID: "fig2", Title: "Coarse traces: preprocessing- vs GPU-bound pipelines", Run: func(s Scale) Result { return RunFig2(s) }},
		{ID: "fig3", Title: "Out-of-order arrival causes waiting despite batch ready", Run: func(s Scale) Result { return RunFig3(s) }},
		{ID: "fig4", Title: "Per-batch preprocessing time variance across configs", Run: func(s Scale) Result { return RunFig4(s) }},
		{ID: "fig5", Title: "Wait and delay time distributions (batch 512)", Run: func(s Scale) Result { return RunFig5(s) }},
		{ID: "fig6", Title: "Hardware case study: varying data loader workers", Run: func(s Scale) Result { return RunFig6(s) }},
		{ID: "fig6amd", Title: "Hardware case study on AMD (paper defers this to its artifact)", Run: func(s Scale) Result { return RunFig6Arch(s, native.AMD) }},
		{ID: "table3", Title: "Profiler time and storage overheads", Run: func(s Scale) Result { return RunTable3(s) }},
		{ID: "table4", Title: "Profiler functionality comparison", Run: func(s Scale) Result { return RunTable4(s) }},
		{ID: "extensions", Title: "Beyond the paper: dispatch, offline decode, refined attribution, autotuning", Run: func(s Scale) Result { return RunExtensions(s) }},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// tracedRun executes one simulated epoch of the spec with LotusTrace
// attached and returns the analysis plus the epoch stats.
func tracedRun(spec workloads.Spec) (*trace.Analysis, runStats) {
	var buf bytes.Buffer
	tr := trace.NewTracer(&buf)
	stats, _, sim := spec.Run(tr.Hooks())
	_ = tr.Flush()
	recs, err := trace.ReadLog(&buf)
	if err != nil {
		panic(fmt.Sprintf("experiments: traced run produced unparseable log: %v", err))
	}
	return trace.Analyze(recs), runStats{
		Elapsed: stats.Elapsed, GPUBusy: stats.GPUBusy, GPUIdle: stats.GPUIdle,
		MainWait: stats.MainWaitTime, Batches: stats.Batches, OOO: stats.OOOEvents,
		SimEnd: sim.Elapsed(), TraceBytes: int64(buf.Len()), TraceRecords: tr.Records(),
	}
}

type runStats struct {
	Elapsed      time.Duration
	GPUBusy      time.Duration
	GPUIdle      time.Duration
	MainWait     time.Duration
	Batches      int
	OOO          int
	SimEnd       time.Duration
	TraceBytes   int64
	TraceRecords int
}

func (r runStats) gpuUtil() float64 {
	total := r.GPUBusy + r.GPUIdle
	if total == 0 {
		return 0
	}
	return float64(r.GPUBusy) / float64(total)
}

// ms formats a duration in milliseconds with 2 decimals.
func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond)) }

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
