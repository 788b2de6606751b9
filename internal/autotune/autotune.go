// Package autotune searches DataLoader configurations using LotusTrace's
// signals rather than end-to-end time alone — the optimization direction the
// paper motivates (tf.data's AUTOTUNE and Plumber pick parallelism from
// aggregate statistics; Takeaway 5 shows why the worker count is non-trivial:
// more workers keep cutting epoch time with diminishing returns while total
// CPU time climbs).
//
// The tuner runs candidate worker counts on the virtual clock and reads
// three trace-level signals per run:
//
//   - the fraction of batches the main process waited long for (still
//     preprocessing-bound? keep scaling),
//   - accelerator utilization (saturated? stop — more workers only burn CPU),
//   - total preprocessing CPU seconds (the budget the extra workers cost).
//
// An e2e-only tuner cannot distinguish "no improvement because the GPU is
// now the bottleneck" from "no improvement because of noise"; the trace
// signals make the stopping decision explicit.
//
// The classification and selection rules live in internal/control — this
// package is the offline driver of the bottleneck model the trace advisor
// shares.
package autotune

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"lotus/internal/control"
	"lotus/internal/core/trace"
	"lotus/internal/workloads"
)

// Config tunes the search.
type Config struct {
	// MinWorkers / MaxWorkers bound the search space.
	MinWorkers, MaxWorkers int
	// CPUBudgetSeconds caps the preprocessing CPU seconds a configuration
	// may consume per epoch (0 = unlimited).
	CPUBudgetSeconds float64
	// Tolerance stops the search when doubling the workers improves epoch
	// time by less than this fraction (default 0.08).
	Tolerance float64
	// TunePrefetch additionally evaluates prefetch factors {1, 4} around
	// the chosen worker count.
	TunePrefetch bool
	// LongWait classifies a batch wait as a stall (default 500ms).
	LongWait time.Duration
}

func (c Config) defaults() Config {
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 32
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.08
	}
	if c.LongWait <= 0 {
		c.LongWait = 500 * time.Millisecond
	}
	return c
}

// Step is one evaluated configuration — the shared model's Sample, produced
// here by a virtual-clock run instead of live counters.
type Step = control.Sample

// Result is the tuning outcome.
type Result struct {
	Best       Step
	Steps      []Step
	StopReason string
}

// String renders the search trajectory.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %9s %12s %10s %9s %12s\n", "workers", "prefetch", "e2e", "cpu_sec", "gpu_util", "waits>thr")
	for _, s := range r.Steps {
		marker := " "
		if s == r.Best {
			marker = "*"
		}
		pf := s.Prefetch
		if pf == 0 {
			pf = 2
		}
		fmt.Fprintf(&b, "%s%7d %9d %12v %10.1f %8.1f%% %11.1f%%\n",
			marker, s.Workers, pf, s.E2E.Round(time.Millisecond), s.CPUSeconds, 100*s.GPUUtil, 100*s.LongWaitFrac)
	}
	fmt.Fprintf(&b, "stopped: %s; chose %d workers\n", r.StopReason, r.Best.Workers)
	return b.String()
}

// evaluate runs one candidate (workers, prefetch) configuration on the
// virtual clock and extracts the model's signals (prefetch 0 keeps the
// spec's own setting).
func evaluate(spec workloads.Spec, workers, prefetch int, longWait time.Duration) Step {
	spec.NumWorkers = workers
	if prefetch > 0 {
		spec.Prefetch = prefetch
	}
	var buf bytes.Buffer
	tr := trace.NewTracer(&buf)
	stats, _, _ := spec.Run(tr.Hooks())
	_ = tr.Flush()
	recs, err := trace.ReadLog(&buf)
	if err != nil {
		panic(fmt.Sprintf("autotune: unparseable trace: %v", err))
	}
	a := trace.Analyze(recs)
	return Step{
		Workers:      workers,
		Prefetch:     prefetch,
		E2E:          stats.Elapsed,
		CPUSeconds:   a.TotalCPUSeconds(),
		GPUUtil:      stats.GPUUtilization(),
		LongWaitFrac: a.WaitsOver(longWait),
	}
}

// Tune searches worker counts by doubling while the bottleneck model says
// the pipeline is still preprocessing-bound, then refines between the last
// two candidates. The returned Best is control.SelectCheapest's pick: the
// cheapest configuration (fewest CPU seconds) within Tolerance of the best
// epoch time and within the CPU budget.
func Tune(spec workloads.Spec, cfg Config) Result {
	cfg = cfg.defaults()
	res := Result{}

	withinBudget := func(s Step) bool {
		return cfg.CPUBudgetSeconds <= 0 || s.CPUSeconds <= cfg.CPUBudgetSeconds
	}

	// Phase 1: doubling, with the stopping decision delegated to the shared
	// bottleneck classification.
	w := cfg.MinWorkers
	var prev *Step
	for {
		step := evaluate(spec, w, 0, cfg.LongWait)
		res.Steps = append(res.Steps, step)
		if !withinBudget(step) {
			res.StopReason = fmt.Sprintf("CPU budget exceeded at %d workers (%.1fs > %.1fs)",
				w, step.CPUSeconds, cfg.CPUBudgetSeconds)
			break
		}
		if verdict := control.Classify(step); verdict == control.BottleneckAccelerator {
			res.StopReason = fmt.Sprintf("accelerator saturated at %d workers (%.0f%% utilization)", w, 100*step.GPUUtil)
			break
		} else if verdict == control.BottleneckBalanced {
			res.StopReason = fmt.Sprintf("stalls eliminated at %d workers", w)
			break
		}
		if prev != nil {
			improve := 1 - float64(step.E2E)/float64(prev.E2E)
			if improve < cfg.Tolerance {
				res.StopReason = fmt.Sprintf("diminishing returns at %d workers (%.1f%% improvement)", w, 100*improve)
				break
			}
		}
		if w >= cfg.MaxWorkers {
			res.StopReason = fmt.Sprintf("search bound reached (%d workers)", w)
			break
		}
		prev = &res.Steps[len(res.Steps)-1]
		w *= 2
		if w > cfg.MaxWorkers {
			w = cfg.MaxWorkers
		}
	}

	// Phase 2: refine between the last two candidates if they straddle the
	// stopping point.
	if n := len(res.Steps); n >= 2 {
		lo, hi := res.Steps[n-2].Workers, res.Steps[n-1].Workers
		if mid := (lo + hi) / 2; mid != lo && mid != hi {
			res.Steps = append(res.Steps, evaluate(spec, mid, 0, cfg.LongWait))
		}
	}

	// Phase 3: with the worker count chosen provisionally, try the
	// prefetch-factor knob around the default (tf.data tunes buffer sizes
	// the same way). Prefetch only matters when variance causes stalls, so
	// evaluate just the immediate neighbors.
	if cfg.TunePrefetch {
		provisional := res.Steps[len(res.Steps)-1].Workers
		for _, pf := range []int{1, 4} {
			res.Steps = append(res.Steps, evaluate(spec, provisional, pf, cfg.LongWait))
		}
	}

	// Selection: the shared rule — cheapest CPU within tolerance of the
	// fastest in-budget run.
	chosen := control.SelectCheapest(res.Steps, cfg.Tolerance, cfg.CPUBudgetSeconds)
	inBudget := false
	for _, s := range res.Steps {
		if withinBudget(s) {
			inBudget = true
			break
		}
	}
	if !inBudget {
		res.StopReason += "; no configuration met the CPU budget"
	}
	res.Best = res.Steps[chosen]
	return res
}
