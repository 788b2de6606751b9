// Package chaos is the deterministic fault-injection sweep: one table of
// rows, each a fault class run through one workload, executed by one of two
// runners.
//
//   - Loader rows (this file) run a fault class through a DataLoader under
//     the virtual clock and SkipBatch: the sim must not deadlock, the trace
//     log must parse and pass trace.Validate (modulo the op-without-batch
//     records a failed batch legitimately leaves), and Iterator.Skipped must
//     equal the injector's up-front prediction exactly.
//   - Served rows (serve.go, rows.go) run a workload against loopback
//     servers — one, or three behind a routed cluster.Client — with the
//     row's features, faults, lives and client: every delivered batch is
//     byte-identical to a local DataLoader run and delivered exactly once,
//     or the stream ends in a clean Error frame.
//
// Every row, whichever runner executes it, ends with the same checks: no
// goroutine leaked, every frame buffer released, and a fault class injected
// something. Every decision the sweep injects is a pure function of the seed,
// so a failing row reproduces by rerunning with the same seed.
package chaos

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"lotus/internal/clock"
	"lotus/internal/core/trace"
	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// Options configures a sweep.
type Options struct {
	// Seed drives every injected decision (default 1).
	Seed int64
	// Short trims the loader rows to one workload (IC); every served row
	// still runs, so every fault class gets at least one injected run.
	Short bool
	// Logf receives per-cell progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Result is one sweep cell's outcome.
type Result struct {
	// Class names the fault class ("read-error", "wire-drop", ...).
	Class string
	// Workload names the pipeline the faults were injected into.
	Workload string
	// Injected counts the faults that actually fired.
	Injected int64
	// Failures lists every violated invariant (empty = cell passed).
	Failures []string
	// Notes carries non-fatal observations (batches delivered, retries...).
	Notes []string
}

// OK reports whether every invariant held.
func (r Result) OK() bool { return len(r.Failures) == 0 }

func (r Result) String() string {
	status := "ok"
	if !r.OK() {
		status = "FAIL: " + strings.Join(r.Failures, "; ")
	}
	s := fmt.Sprintf("%-16s %-4s injected=%-3d %s", r.Class, r.Workload, r.Injected, status)
	if len(r.Notes) > 0 {
		s += " (" + strings.Join(r.Notes, ", ") + ")"
	}
	return s
}

// Sweep runs every row of the table in order and returns one Result per row.
func Sweep(opts Options) []Result {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var out []Result
	for _, c := range cells(opts) {
		r := c.exec()
		logf("chaos: %s", r)
		out = append(out, r)
	}
	return out
}

// cell is one row of the table bound to the runner that executes it.
type cell struct {
	class, workload string
	run             func(res *Result)
}

// cells is the sweep's table: the loader rows for each workload, then the
// served rows.
func cells(opts Options) []cell {
	seed := cmp.Or(opts.Seed, 1)
	kinds := []workloads.Kind{workloads.IC, workloads.IS, workloads.OD}
	if opts.Short {
		kinds = kinds[:1]
	}
	var out []cell
	for _, kind := range kinds {
		for _, lr := range []struct {
			class  string
			faults faultinject.Spec
		}{
			{"baseline", faultinject.Spec{}},
			{"read-error", faultinject.Spec{Seed: seed, ReadErrorNth: 6}},
			{"read-stall", faultinject.Spec{Seed: seed, ReadStallNth: 4, ReadStall: 20 * time.Millisecond}},
			{"worker-panic", faultinject.Spec{Seed: seed, PanicNth: 6}},
			{"worker-stall", faultinject.Spec{Seed: seed, StallNth: 3, WorkerStall: 50 * time.Millisecond}},
		} {
			out = append(out, loaderCell(lr.class, chaosSpec(kind, 0, seed), lr.faults))
		}
	}
	for _, rw := range servedRows() {
		out = append(out, servedCell(seed, rw))
	}
	return out
}

// exec runs the cell under the checks every row gets, whichever its runner:
// no goroutine and no frame buffer outlives it — frame memory is freed by
// Release alone, so a leak is for good — and a fault class injects
// something.
func (c cell) exec() Result {
	res := Result{Class: c.class, Workload: c.workload}
	var leaks failures
	framesBack := testutil.CheckFrames(&leaks, serve.FramesInUse)
	baseline := testutil.Baseline()
	c.run(&res)
	if err := testutil.WaitNoLeaks(baseline, 5*time.Second); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	framesBack()
	res.Failures = append(res.Failures, leaks...)
	if c.class != "baseline" && res.Injected == 0 {
		res.Failures = append(res.Failures, "fault class injected nothing")
	}
	return res
}

// failures collects what a testutil check reports outside a test.
type failures []string

func (f *failures) Helper() {}

func (f *failures) Errorf(format string, args ...any) {
	*f = append(*f, fmt.Sprintf(format, args...))
}

// chaosSpec returns a small instance of one workload, sized so a row runs in
// well under a second; samples 0 takes the workload's default.
func chaosSpec(kind workloads.Kind, samples int, seed int64) workloads.Spec {
	var spec workloads.Spec
	switch kind {
	case workloads.IS:
		return workloads.ISSpec(16, seed)
	case workloads.OD:
		return workloads.ODSpec(16, seed)
	case workloads.ICA:
		spec = workloads.ICASpec(cmp.Or(samples, 32), seed) // 4 batches per epoch
	default:
		spec = workloads.ICSpec(cmp.Or(samples, 64), seed) // 8 batches per epoch
	}
	spec.BatchSize = 8
	spec.NumWorkers = 2
	return spec
}

// loaderCell is one loader row: a fault class run through one workload's
// DataLoader under SkipBatch and the virtual clock.
func loaderCell(class string, spec workloads.Spec, fspec faultinject.Spec) cell {
	return cell{class: class, workload: string(spec.Kind), run: func(res *Result) {
		inj := faultinject.New(fspec)
		plan := pipeline.BuildBatchPlan(spec.NumSamples, spec.BatchSize, spec.Shuffle, false, spec.Seed)
		predicted := inj.FailingBatches(plan)

		var buf bytes.Buffer
		tracer := trace.NewTracer(&buf)
		hooks := tracer.Hooks()
		var skipped []int
		var delivered int
		var runErr error
		func() {
			defer func() {
				if r := recover(); r != nil {
					res.Failures = append(res.Failures, fmt.Sprintf("deadlock or panic: %v", r))
				}
			}()
			cfg := spec.LoaderConfig(pipeline.Simulated, 0, 0)
			cfg.OnError, cfg.Hooks, cfg.Faults = pipeline.SkipBatch, hooks, inj
			sim := clock.NewSim()
			dl := pipeline.NewDataLoader(sim, spec.Dataset(hooks), cfg)
			sim.Run("chaos-main", func(p clock.Proc) {
				it := dl.Start(p)
				for {
					if _, ok := it.Next(p); !ok {
						skipped = it.Skipped()
						runErr = it.Err()
						return
					}
					delivered++
				}
			})
		}()
		if runErr != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("SkipBatch run surfaced Err: %v", runErr))
		}

		// Exact skip accounting: Skipped must equal the injector's prediction.
		sort.Ints(skipped)
		if !slices.Equal(skipped, predicted) {
			res.Failures = append(res.Failures, fmt.Sprintf("skipped %v, predicted %v", skipped, predicted))
		}
		if delivered != len(plan)-len(predicted) {
			res.Failures = append(res.Failures, fmt.Sprintf("delivered %d batches, want %d", delivered, len(plan)-len(predicted)))
		}

		// The trace must still parse, and every surviving Validate issue must
		// be one a failed batch legitimately produces (its ops were logged
		// before the panic, so they reference a batch with no preprocessing
		// record).
		tracer.Flush()
		records, err := trace.ReadLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("trace unparseable: %v", err))
		} else {
			failed := map[int]bool{}
			for _, id := range predicted {
				failed[id] = true
			}
			for _, issue := range trace.Validate(records) {
				if !allowedIssue(issue, failed) {
					res.Failures = append(res.Failures, "trace invariant: "+issue.String())
				}
			}
		}
		res.Injected = inj.Counts().Total()
		res.Notes = append(res.Notes, fmt.Sprintf("batches=%d skipped=%d records=%d", delivered, len(skipped), len(records)))
	}}
}

// allowedIssue reports whether a Validate issue is the expected artifact of
// an injected batch failure rather than an instrumentation bug.
func allowedIssue(issue trace.Issue, failed map[int]bool) bool {
	if issue.Code != "op-without-batch" || len(failed) == 0 {
		return false
	}
	var op string
	var id int
	if _, err := fmt.Sscanf(issue.Detail, "op %s references batch %d", &op, &id); err != nil {
		return false
	}
	return failed[id]
}
