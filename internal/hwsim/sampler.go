package hwsim

import (
	"sort"
	"time"

	"lotus/internal/native"
	"lotus/internal/rng"
)

// TimeRange is a half-open collection window [Start, End).
type TimeRange struct {
	Start, End time.Time
}

// Sample is one sampling-driver hit: at time T on a thread, the driver
// observed symbol/library. Background samples (unrelated runtime functions:
// the interpreter loop, allocator locks, driver threads) have Kernel == nil.
type Sample struct {
	T       time.Time
	Thread  int
	Symbol  string
	Library string
	Kernel  *native.Kernel
	// Counters is the event count credited to this sample (one sampling
	// interval's worth at the sampled function's rates).
	Counters Counters
}

// SamplerConfig describes the sampling driver. The paper: Intel VTune
// user-mode sampling is limited to 10 ms intervals; AMD uProf to 1 ms.
type SamplerConfig struct {
	Interval time.Duration
	// SkidProb is the probability that a sample landing within SkidWindow
	// after a function boundary is attributed to the *previous* function —
	// the out-of-order-execution mis-bucketing the paper works around with
	// sleep() gaps.
	SkidProb   float64
	SkidWindow time.Duration
	// NoiseProb is the probability a sample is taken while the thread is in
	// unrelated runtime code (interpreter, allocator, kernel), producing the
	// "incorrect C/C++ functions" LotusMap must filter.
	NoiseProb float64
	// PhaseJitter randomizes each run's first-sample offset within the
	// interval, so short functions are caught probabilistically across runs
	// (the C >= 1-(1-f/s)^n behaviour the run-count formula handles).
	PhaseJitter bool
	Seed        int64
}

// VTuneSampler returns the Intel VTune-like configuration.
func VTuneSampler(seed int64) SamplerConfig {
	return SamplerConfig{
		Interval:    10 * time.Millisecond,
		SkidProb:    0.35,
		SkidWindow:  120 * time.Microsecond,
		NoiseProb:   0.015,
		PhaseJitter: true,
		Seed:        seed,
	}
}

// UProfSampler returns the AMD uProf-like configuration.
func UProfSampler(seed int64) SamplerConfig {
	return SamplerConfig{
		Interval:    time.Millisecond,
		SkidProb:    0.30,
		SkidWindow:  80 * time.Microsecond,
		NoiseProb:   0.015,
		PhaseJitter: true,
		Seed:        seed,
	}
}

// backgroundSymbols is the pool of unrelated functions that pollute real
// profiles (the paper reports 300+ functions in a full-pipeline VTune run).
var backgroundSymbols = []struct{ symbol, library string }{
	{"_PyEval_EvalFrameDefault", "python3.10"},
	{"PyObject_GetAttr", "python3.10"},
	{"gc_collect_main", "python3.10"},
	{"pthread_mutex_lock", "libc.so.6"},
	{"__sched_yield", "libc.so.6"},
	{"pymalloc_alloc", "python3.10"},
	{"cuLaunchKernel", "libcuda.so.1"},
	{"cudbgReportDriverApiError", "libcuda.so.1"},
	{"clear_page_erms", "vmlinux"},
	{"copy_user_enhanced_fast_string", "vmlinux"},
	{"entry_SYSCALL_64", "vmlinux"},
	{"tcp_sendmsg", "vmlinux"},
}

// Sampler walks recorded native timelines and produces samples at the
// configured interval, restricted to the given collection windows.
type Sampler struct {
	cfg   SamplerConfig
	model Model
}

// NewSampler builds a sampler.
func NewSampler(cfg SamplerConfig, model Model) *Sampler {
	return &Sampler{cfg: cfg, model: model}
}

// Run samples every thread timeline of rec within the windows and returns
// the observed samples in time order per thread. Each (thread, window) pair
// derives its own randomness from the window's start time, so sampling a
// window is independent of how many other windows the call covers — and two
// collection windows at different times get different sampling phases, which
// is what makes the multi-run capture formula work.
func (s *Sampler) Run(rec *native.Recording, windows []TimeRange) []Sample {
	var out []Sample
	for _, th := range rec.Threads() {
		tl := rec.Timeline(th)
		if len(tl) == 0 {
			continue
		}
		for _, w := range windows {
			r := rng.New(s.cfg.Seed^w.Start.UnixNano()^int64(th)*1315423911, "hwsim-sampler")
			out = append(out, s.sampleWindow(tl, th, w, r)...)
		}
	}
	return out
}

func (s *Sampler) sampleWindow(tl []native.Invocation, thread int, w TimeRange, r *rng.Stream) []Sample {
	var out []Sample
	phase := time.Duration(0)
	if s.cfg.PhaseJitter {
		phase = time.Duration(r.Float64() * float64(s.cfg.Interval))
	}
	for t := w.Start.Add(phase); t.Before(w.End); t = t.Add(s.cfg.Interval) {
		idx := invocationAt(tl, t)
		if idx < 0 {
			continue // thread idle at this instant
		}
		inv := tl[idx]
		// Sample skid: near the start of an invocation the driver may still
		// attribute to the previous function on the thread — but only if that
		// function ended recently. An idle gap (the paper's sleep() trick,
		// § IV-B) longer than the skid window therefore prevents
		// mis-bucketing across operation boundaries.
		if idx > 0 && t.Sub(inv.Start) < s.cfg.SkidWindow &&
			inv.Start.Sub(tl[idx-1].End()) < s.cfg.SkidWindow && r.Bool(s.cfg.SkidProb) {
			inv = tl[idx-1]
		}
		if r.Bool(s.cfg.NoiseProb) {
			bg := backgroundSymbols[r.Intn(len(backgroundSymbols))]
			out = append(out, Sample{
				T: t, Thread: thread,
				Symbol: bg.symbol, Library: bg.library,
				Counters: Counters{CPUTime: s.cfg.Interval},
			})
			continue
		}
		out = append(out, Sample{
			T: t, Thread: thread,
			Symbol: inv.Kernel.Symbol, Library: inv.Kernel.Library,
			Kernel:   inv.Kernel,
			Counters: s.model.RateCounters(inv, s.cfg.Interval),
		})
	}
	return out
}

// invocationAt binary-searches the timeline for the invocation covering t,
// returning -1 when the thread was idle.
func invocationAt(tl []native.Invocation, t time.Time) int {
	// First invocation starting after t.
	i := sort.Search(len(tl), func(i int) bool { return tl[i].Start.After(t) })
	if i == 0 {
		return -1
	}
	i--
	if t.Before(tl[i].End()) {
		return i
	}
	return -1
}
