// Package lotusmap implements LotusMap: the methodology that reconstructs
// the mapping from framework-level preprocessing operations to the native
// (C/C++) functions they execute, using only what a hardware profiler can
// observe, and then uses the mapping plus LotusTrace elapsed-time weights to
// attribute function-granularity hardware counters to operations.
//
// The reconstruction follows § IV-B of the paper:
//
//   - each operation is profiled in isolation behind ITT-style
//     resume/pause gating (Listing 4), after warm-up iterations;
//   - sleep gaps are inserted before each collection window so sample skid
//     cannot pull the previous operation's functions into the bucket;
//   - short-lived or branch-dependent functions are caught by running the
//     operation n times, with n chosen from the capture-probability formula
//     C >= 1 - (1 - f/s)^n;
//   - functions from runtime/OS libraries and functions without support
//     across runs are filtered out.
//
// Because the simulator knows the true transform→kernel map (which the
// profiler never sees), the package's tests measure the reconstruction's
// precision and recall — a validation the paper could only argue indirectly.
package lotusmap

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"lotus/internal/clock"
	"lotus/internal/hwsim"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

// RunsNeeded returns the smallest number of runs n such that a function
// spanning f within a sampling interval s is captured at least once with
// probability >= confidence: C >= 1-(1-f/s)^n (§ IV-B). f >= s needs one
// run; degenerate inputs return 1.
func RunsNeeded(confidence float64, f, s time.Duration) int {
	if f <= 0 || s <= 0 || confidence <= 0 {
		return 1
	}
	if f >= s {
		return 1
	}
	p := float64(f) / float64(s)
	if confidence >= 1 {
		confidence = 0.999999
	}
	n := math.Log(1-confidence) / math.Log(1-p)
	if n < 1 {
		return 1
	}
	return int(math.Ceil(n))
}

// MappedFunc is one reconstructed native function for an operation — a row
// of Table I.
type MappedFunc struct {
	Symbol  string `json:"function"`
	Library string `json:"library"`
	// Support is the number of isolation runs in which the function was
	// sampled.
	Support int `json:"support"`
	// Samples is the total sample count across runs.
	Samples int `json:"samples"`
}

// Mapping is the reconstructed operation→functions map (the
// mapping_funcs.json artifact).
type Mapping struct {
	Arch string                  `json:"arch"`
	Ops  map[string][]MappedFunc `json:"ops"`
	// Runs records how many isolation runs each op was profiled with.
	Runs map[string]int `json:"runs"`
}

// OpsForSymbol returns the operations whose mapping contains symbol@library.
func (m *Mapping) OpsForSymbol(symbol, library string) []string {
	var out []string
	for op, funcs := range m.Ops {
		for _, f := range funcs {
			if f.Symbol == symbol && f.Library == library {
				out = append(out, op)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Symbols returns the mapped symbols for one op, sorted by sample count
// descending (Table I ordering).
func (m *Mapping) Symbols(op string) []MappedFunc {
	fs := append([]MappedFunc(nil), m.Ops[op]...)
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Samples != fs[j].Samples {
			return fs[i].Samples > fs[j].Samples
		}
		return fs[i].Symbol < fs[j].Symbol
	})
	return fs
}

// MarshalJSON-friendly persistence helpers.
func (m *Mapping) Encode() ([]byte, error) { return json.MarshalIndent(m, "", " ") }

// String renders the mapping in Table I's layout.
func (m *Mapping) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Transformation -> Function (Library), arch=%s\n", m.Arch)
	ops := make([]string, 0, len(m.Ops))
	for op := range m.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(&b, "%s (runs=%d)\n", op, m.Runs[op])
		for _, f := range m.Symbols(op) {
			fmt.Fprintf(&b, "    %-40s %-48s support=%d samples=%d\n", f.Symbol, f.Library, f.Support, f.Samples)
		}
	}
	return b.String()
}

// LotusMap's method (§ IV-B), fixed as the paper runs it.
const (
	// warmups is the number of unprofiled iterations before collection
	// (Listing 4 warms up 4 times).
	warmups = 4
	// confidence is the target capture probability for the run-count
	// formula (the paper's example uses 0.75).
	confidence = 0.75
	// minRuns is the least run count; Config.MaxRuns bounds it above and
	// wins where the two cross.
	minRuns = 12
	// minSupport and minSupportFrac drop a function sampled in fewer than
	// max(minSupport, ceil(minSupportFrac·runs)) runs. Genuine kernels recur
	// across runs of the same operation; ambient noise (allocator locks,
	// scheduler calls) does not, even when it lives in an allowed library
	// like libc.
	minSupport     = 2
	minSupportFrac = 0.15
)

// filteredLibraries are the runtime/OS libraries that can never be
// preprocessing work (interpreter, kernel, CUDA driver): their functions are
// dropped from every mapping.
var filteredLibraries = []string{"python3.10", "vmlinux", "libcuda.so.1"}

// Config tunes the mapping methodology.
type Config struct {
	// Sampler is the hardware profiler's sampling configuration (VTune-like
	// 10 ms or uProf-like 1 ms).
	Sampler hwsim.SamplerConfig
	// MaxRuns bounds the computed run count above.
	MaxRuns int
	// GapSleep is the idle gap inserted before each collection window to
	// defeat sample skid. Zero disables the trick (the ablation case).
	GapSleep time.Duration
}

// DefaultConfig returns the paper-calibrated methodology for the given
// profiler configuration.
func DefaultConfig(sampler hwsim.SamplerConfig) Config {
	return Config{Sampler: sampler, MaxRuns: 60, GapSleep: time.Second}
}

// MapPipeline reconstructs the mapping for every transform of the compose
// chain, profiling each in isolation on a fresh virtual-time clock. The
// prototype sample provides the input geometry (a representative dataset
// record); per-run inputs vary by run index so branch-dependent kernels are
// eventually exercised.
func MapPipeline(engine *native.Engine, compose *pipeline.Compose, prototype pipeline.Sample, cfg Config) *Mapping {
	m := &Mapping{
		Arch: engine.Arch().String(),
		Ops:  make(map[string][]MappedFunc),
		Runs: make(map[string]int),
	}
	for i := range compose.Transforms {
		op := compose.Transforms[i]
		funcs, runs := mapOneOp(engine, compose, i, prototype, cfg)
		m.Ops[op.Name()] = funcs
		m.Runs[op.Name()] = runs
	}
	return m
}

// mapOneOp profiles compose.Transforms[opIdx] in isolation.
func mapOneOp(engine *native.Engine, compose *pipeline.Compose, opIdx int, prototype pipeline.Sample, cfg Config) ([]MappedFunc, int) {
	op := compose.Transforms[opIdx]
	// target is the least isolated-op span the mapper aims for: shorter
	// operations are re-run with inflated inputs.
	target := 4 * cfg.Sampler.Interval

	sim := clock.NewSim()
	sess := hwsim.NewSession(engine)
	defer engine.Detach()

	var runs int
	sim.Run("lotusmap", func(p clock.Proc) {
		ctx := &pipeline.Ctx{
			Proc:   p,
			Engine: engine,
			Thread: &native.Thread{ID: 1},
			Mode:   pipeline.Simulated,
			Seed:   int64(opIdx) * 7919,
		}
		engine.BeginWork()
		defer engine.EndWork()

		// Calibration (collection paused): measure the isolated op's span
		// and, if it is shorter than the target, inflate its input
		// geometry — § IV-B's "run the operation with a larger input"
		// remedy for short-lived operations. Branchy ops are measured a few
		// times and judged by their longest span.
		factor := 1
		var span time.Duration
		for {
			span = 0
			for r := 0; r < 4; r++ {
				in := inflate(prepareInput(ctx, compose, opIdx, prototype, r), factor)
				t0 := p.Now()
				op.Apply(ctx, in)
				if d := p.Now().Sub(t0); d > span {
					span = d
				}
			}
			if span >= target || factor >= 64 {
				break
			}
			factor *= 2
		}

		// Size the run count from the capture formula, targeting functions
		// down to 1/16 of the op's span.
		runs = min(max(RunsNeeded(confidence, span/16, cfg.Sampler.Interval), minRuns), cfg.MaxRuns)

		for run := 0; run < runs; run++ {
			in := inflate(prepareInput(ctx, compose, opIdx, prototype, run), factor)
			// Warm-up applications outside any collection window.
			for w := 0; w < warmups; w++ {
				op.Apply(ctx, in)
			}
			// The sleep gap prevents skid from attributing preceding work
			// into the window (§ IV-B "Miscellaneous Instrumentation
			// Tricks").
			if cfg.GapSleep > 0 {
				p.Sleep(cfg.GapSleep)
			}
			sess.Resume(p.Now())
			op.Apply(ctx, in)
			sess.Pause(p.Now())
			if cfg.GapSleep > 0 {
				p.Sleep(cfg.GapSleep)
			}
		}
	})
	sess.Detach(sim.Now())

	// Sample each collection window independently to build per-run support.
	sampler := hwsim.NewSampler(cfg.Sampler)
	type agg struct {
		support int
		samples int
		library string
	}
	byFunc := map[string]*agg{}
	for _, w := range sess.Windows() {
		samples := sampler.Run(sess.Recording(), []hwsim.TimeRange{w})
		seen := map[string]bool{}
		for _, smp := range samples {
			if slices.Contains(filteredLibraries, smp.Library) {
				continue
			}
			key := smp.Symbol + "\x00" + smp.Library
			a := byFunc[key]
			if a == nil {
				a = &agg{library: smp.Library}
				byFunc[key] = a
			}
			a.samples++
			if !seen[key] {
				seen[key] = true
				a.support++
			}
		}
	}

	support := max(minSupport, int(math.Ceil(minSupportFrac*float64(runs))))
	var out []MappedFunc
	for key, a := range byFunc {
		if a.support < support {
			continue
		}
		sym := key[:strings.IndexByte(key, 0)]
		out = append(out, MappedFunc{Symbol: sym, Library: a.library, Support: a.support, Samples: a.samples})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Symbol < out[j].Symbol
	})
	return out, runs
}

// inflate scales a sample's geometry by sqrt(factor) per spatial axis so
// the total element count grows ~linearly with factor. Meta samples carry
// no buffers, so inflation is free.
func inflate(s pipeline.Sample, factor int) pipeline.Sample {
	if factor <= 1 {
		return s
	}
	mul := 1
	for mul*mul < factor {
		mul *= 2
	}
	s.Width *= mul
	s.Height *= mul
	if s.Depth > 0 {
		s.Depth *= mul
	}
	s.FileBytes *= factor
	return s
}

// prepareInput builds the target op's input by applying the preceding
// transforms (unprofiled) to a per-run variant of the prototype sample.
func prepareInput(ctx *pipeline.Ctx, compose *pipeline.Compose, opIdx int, prototype pipeline.Sample, run int) pipeline.Sample {
	s := prototype
	s.Index = prototype.Index + run // varies branch randomness across runs
	s.Seed = prototype.Seed + int64(run)
	for i := 0; i < opIdx; i++ {
		s = compose.Transforms[i].Apply(ctx, s)
	}
	return s
}

// Quality compares a reconstructed mapping against the pipeline's ground
// truth (resolving logical kernel names to arch symbols via the engine) and
// reports precision/recall per op.
type Quality struct {
	Op        string
	Precision float64
	Recall    float64
	Missing   []string // ground-truth symbols not reconstructed
	Spurious  []string // reconstructed symbols not in ground truth
}

// Evaluate computes mapping quality for every op in the compose chain.
func Evaluate(m *Mapping, engine *native.Engine, compose *pipeline.Compose) []Quality {
	var out []Quality
	for _, t := range compose.Transforms {
		truth := map[string]bool{}
		for _, kname := range t.Kernels() {
			if k, ok := engine.Kernel(kname); ok {
				truth[k.Symbol] = true
			}
		}
		got := map[string]bool{}
		for _, f := range m.Ops[t.Name()] {
			got[f.Symbol] = true
		}
		q := Quality{Op: t.Name()}
		tp := 0
		for sym := range got {
			if truth[sym] {
				tp++
			} else {
				q.Spurious = append(q.Spurious, sym)
			}
		}
		for sym := range truth {
			if !got[sym] {
				q.Missing = append(q.Missing, sym)
			}
		}
		if len(got) > 0 {
			q.Precision = float64(tp) / float64(len(got))
		}
		if len(truth) > 0 {
			q.Recall = float64(tp) / float64(len(truth))
		}
		sort.Strings(q.Missing)
		sort.Strings(q.Spurious)
		out = append(out, q)
	}
	return out
}
