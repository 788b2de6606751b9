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
// signals make the stopping decision explicit. The stall-free threshold is
// the trace advisor's (trace.StallFreeWaitFrac), so the search stops where
// the advisor stops calling a pipeline stalled.
package autotune

import (
	"bytes"
	"fmt"
	"strings"
	"time"

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
	// TunePrefetch additionally evaluates prefetch factors {1, 4} around
	// the chosen worker count.
	TunePrefetch bool
}

// tolerance stops the search when doubling the workers improves epoch time
// by less than this fraction, and bounds how much slower than the fastest
// step the chosen one may be.
const tolerance float64 = 0.08

func (c Config) defaults() Config {
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 32
	}
	return c
}

// Step is one evaluated configuration: the (workers, prefetch) it ran and
// the signals its virtual-clock run produced.
type Step struct {
	Workers int
	// Prefetch is the prefetch factor (0 = the spec's own setting).
	Prefetch     int
	E2E          time.Duration
	CPUSeconds   float64
	GPUUtil      float64
	LongWaitFrac float64
}

// The accelerator-utilization thresholds of the search's stopping rule.
const (
	// saturatedGPUUtil: accelerator utilization above this means more
	// preprocessing throughput cannot help.
	saturatedGPUUtil = 0.9
	// healthyGPUUtil: minimum utilization for a stall-free run to count as
	// balanced rather than merely idle.
	healthyGPUUtil = 0.5
)

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
// spec's own setting). A batch wait longer than the trace advisor's
// trace.DefaultLongWait counts as a stall.
func evaluate(spec workloads.Spec, workers, prefetch int) Step {
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
		LongWaitFrac: a.WaitsOver(trace.DefaultLongWait),
	}
}

// withinBudget reports whether s fits the CPU budget (0 = unlimited).
func (c Config) withinBudget(s Step) bool {
	return c.CPUBudgetSeconds <= 0 || s.CPUSeconds <= c.CPUBudgetSeconds
}

// signalStop is the doubling search's trace-signal stopping rule. It returns
// why the search stops at s — the accelerator is saturated, so more workers
// only burn CPU, or stalls are eliminated on a well-utilized accelerator —
// or "" while the pipeline may still be preprocessing-bound.
func signalStop(s Step) string {
	switch {
	case s.GPUUtil > saturatedGPUUtil:
		return fmt.Sprintf("accelerator saturated at %d workers (%.0f%% utilization)", s.Workers, 100*s.GPUUtil)
	case s.LongWaitFrac < trace.StallFreeWaitFrac && s.GPUUtil > healthyGPUUtil:
		return fmt.Sprintf("stalls eliminated at %d workers", s.Workers)
	}
	return ""
}

// Tune searches worker counts by doubling while the trace signals say the
// pipeline may still be preprocessing-bound, then refines between the last
// two candidates. The returned Best is selectCheapest's pick: the cheapest
// configuration (fewest CPU seconds) within tolerance of the best epoch
// time and within the CPU budget.
func Tune(spec workloads.Spec, cfg Config) Result {
	cfg = cfg.defaults()
	res := Result{}

	// Phase 1: doubling until the budget, the trace signals or diminishing
	// returns stop it.
	w := cfg.MinWorkers
	var prev *Step
	for {
		step := evaluate(spec, w, 0)
		res.Steps = append(res.Steps, step)
		if !cfg.withinBudget(step) {
			res.StopReason = fmt.Sprintf("CPU budget exceeded at %d workers (%.1fs > %.1fs)",
				w, step.CPUSeconds, cfg.CPUBudgetSeconds)
			break
		}
		if res.StopReason = signalStop(step); res.StopReason != "" {
			break
		}
		if prev != nil {
			improve := 1 - float64(step.E2E)/float64(prev.E2E)
			if improve < tolerance {
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
			res.Steps = append(res.Steps, evaluate(spec, mid, 0))
		}
	}

	// Phase 3: with the worker count chosen provisionally, try the
	// prefetch-factor knob around the default (tf.data tunes buffer sizes
	// the same way). Prefetch only matters when variance causes stalls, so
	// evaluate just the immediate neighbors.
	if cfg.TunePrefetch {
		provisional := res.Steps[len(res.Steps)-1].Workers
		for _, pf := range []int{1, 4} {
			res.Steps = append(res.Steps, evaluate(spec, provisional, pf))
		}
	}

	chosen, inBudget := selectCheapest(res.Steps, cfg)
	if !inBudget {
		res.StopReason += "; no configuration met the CPU budget"
	}
	res.Best = res.Steps[chosen]
	return res
}

// selectCheapest picks the configuration to run: the fewest CPU seconds
// among steps within tolerance of the fastest in-budget epoch time. When
// nothing fits the budget it falls back to the cheapest step outright and
// reports inBudget false. chosen is an index into steps, or -1 for none.
// This is the selection rule the paper's Takeaway 5 motivates: past the
// knee, more workers buy little time for a lot of CPU.
func selectCheapest(steps []Step, cfg Config) (chosen int, inBudget bool) {
	var bestE2E time.Duration
	for _, s := range steps {
		if cfg.withinBudget(s) && (bestE2E == 0 || s.E2E < bestE2E) {
			bestE2E = s.E2E
		}
	}
	chosen = -1
	for i, s := range steps {
		if !cfg.withinBudget(s) {
			continue
		}
		inBudget = true
		if float64(s.E2E) <= float64(bestE2E)*(1+tolerance) &&
			(chosen < 0 || s.CPUSeconds < steps[chosen].CPUSeconds) {
			chosen = i
		}
	}
	if !inBudget {
		for i, s := range steps {
			if chosen < 0 || s.CPUSeconds < steps[chosen].CPUSeconds {
				chosen = i
			}
		}
	}
	return chosen, inBudget
}
