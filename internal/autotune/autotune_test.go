package autotune

import (
	"strings"
	"testing"
	"time"

	"lotus/internal/workloads"
)

func icSpec(samples int) workloads.Spec {
	spec := workloads.ICSpec(samples, 1)
	spec.BatchSize, spec.GPUs = 64, 4
	return spec
}

func TestTuneScalesUpPreprocessingBoundPipeline(t *testing.T) {
	res := Tune(icSpec(1280), Config{MinWorkers: 1, MaxWorkers: 16})
	if res.Best.Workers < 4 {
		t.Fatalf("IC is preprocessing-bound at 1 worker; tuner chose only %d\n%s", res.Best.Workers, res)
	}
	// The chosen config must be dramatically faster than the 1-worker run.
	first := res.Steps[0]
	if float64(res.Best.E2E) > 0.6*float64(first.E2E) {
		t.Fatalf("tuned e2e %v vs 1-worker %v — insufficient improvement\n%s", res.Best.E2E, first.E2E, res)
	}
	if res.StopReason == "" {
		t.Fatal("missing stop reason")
	}
}

func TestTuneStopsEarlyWhenGPUBound(t *testing.T) {
	// IS is GPU-bound even with few workers: the trace signals (high GPU
	// utilization, no long waits) let the tuner stop without sweeping.
	spec := workloads.ISSpec(32, 1)
	res := Tune(spec, Config{MinWorkers: 2, MaxWorkers: 16})
	if len(res.Steps) > 3 {
		t.Fatalf("tuner evaluated %d configs for a GPU-bound pipeline; signals should stop it immediately\n%s",
			len(res.Steps), res)
	}
	if res.Best.Workers > 4 {
		t.Fatalf("GPU-bound pipeline needs few workers, tuner chose %d", res.Best.Workers)
	}
	if !strings.Contains(res.StopReason, "saturated") && !strings.Contains(res.StopReason, "stalls eliminated") {
		t.Fatalf("stop reason should cite the trace signal, got %q", res.StopReason)
	}
}

func TestTuneRespectsCPUBudget(t *testing.T) {
	unbounded := Tune(icSpec(1280), Config{MinWorkers: 1, MaxWorkers: 16})
	floor := unbounded.Steps[0].CPUSeconds // 1 worker = cheapest possible
	if unbounded.Best.CPUSeconds <= floor {
		t.Skipf("scaling did not raise CPU cost (%.1f vs %.1f); nothing to budget", unbounded.Best.CPUSeconds, floor)
	}
	// A budget between the 1-worker cost and the unbounded choice's cost
	// must be honored.
	budget := (floor + unbounded.Best.CPUSeconds) / 2
	bounded := Tune(icSpec(1280), Config{MinWorkers: 1, MaxWorkers: 16, CPUBudgetSeconds: budget})
	if bounded.Best.CPUSeconds > budget {
		t.Fatalf("chosen config costs %.1fs CPU, budget %.1fs\n%s", bounded.Best.CPUSeconds, budget, bounded)
	}

	// An impossible budget falls back to the cheapest configuration and
	// says so.
	impossible := Tune(icSpec(1280), Config{MinWorkers: 2, MaxWorkers: 8, CPUBudgetSeconds: 0.001})
	if !strings.Contains(impossible.StopReason, "no configuration met the CPU budget") {
		t.Fatalf("impossible budget should be reported, got %q", impossible.StopReason)
	}
}

func TestTunePrefersCheapestWithinTolerance(t *testing.T) {
	res := Tune(icSpec(1280), Config{MinWorkers: 1, MaxWorkers: 16})
	// The best step must be the cheapest among steps within tolerance of the
	// fastest e2e.
	var fastest float64
	for _, s := range res.Steps {
		if fastest == 0 || float64(s.E2E) < fastest {
			fastest = float64(s.E2E)
		}
	}
	for _, s := range res.Steps {
		if float64(s.E2E) <= fastest*(1+tolerance) && s.CPUSeconds < res.Best.CPUSeconds-1e-9 {
			t.Fatalf("step %d workers (%.1fs CPU) is within tolerance and cheaper than chosen %d (%.1fs)\n%s",
				s.Workers, s.CPUSeconds, res.Best.Workers, res.Best.CPUSeconds, res)
		}
	}
}

func TestTuneRenderedTrajectory(t *testing.T) {
	res := Tune(icSpec(640), Config{MinWorkers: 1, MaxWorkers: 8})
	out := res.String()
	if !strings.Contains(out, "workers") || !strings.Contains(out, "stopped:") {
		t.Fatalf("rendering incomplete:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatal("rendering should mark the chosen configuration")
	}
}

func TestTuneDefaults(t *testing.T) {
	cfg := Config{}.defaults()
	if cfg.MinWorkers != 1 || cfg.MaxWorkers != 32 {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func TestTunePrefetchKnob(t *testing.T) {
	res := Tune(icSpec(640), Config{MinWorkers: 2, MaxWorkers: 8, TunePrefetch: true})
	pfTried := map[int]bool{}
	for _, s := range res.Steps {
		pfTried[s.Prefetch] = true
	}
	if !pfTried[1] || !pfTried[4] {
		t.Fatalf("prefetch candidates not evaluated: %v\n%s", pfTried, res)
	}
	if !strings.Contains(res.String(), "prefetch") {
		t.Fatal("rendering missing prefetch column")
	}
}

// TestSignalStop: the search stops on a saturated accelerator, whatever the
// waits, and on a stall-free run with a well-utilized accelerator; long
// waits, an idle accelerator and the hysteresis band between the advisor's
// two wait thresholds keep it growing.
func TestSignalStop(t *testing.T) {
	cases := []struct {
		name string
		s    Step
		want string
	}{
		{"saturated gpu wins", Step{Workers: 4, GPUUtil: 0.95, LongWaitFrac: 0.9}, "accelerator saturated at 4 workers (95% utilization)"},
		{"balanced", Step{Workers: 8, GPUUtil: 0.8, LongWaitFrac: 0.01}, "stalls eliminated at 8 workers"},
		{"long waits", Step{GPUUtil: 0.3, LongWaitFrac: 0.5}, ""},
		{"stall-free but idle gpu", Step{GPUUtil: 0.2, LongWaitFrac: 0.01}, ""},
		{"hysteresis band", Step{GPUUtil: 0.8, LongWaitFrac: 0.15}, ""},
	}
	for _, c := range cases {
		if got := signalStop(c.s); got != c.want {
			t.Errorf("%s: signalStop(%+v) = %q, want %q", c.name, c.s, got, c.want)
		}
	}
}

func TestSelectCheapest(t *testing.T) {
	steps := []Step{
		{Workers: 1, E2E: 10 * time.Second, CPUSeconds: 1},
		{Workers: 4, E2E: 4 * time.Second, CPUSeconds: 5},
		{Workers: 8, E2E: 3900 * time.Millisecond, CPUSeconds: 11},
	}
	for _, c := range []struct {
		budget   float64
		want     int
		inBudget bool
	}{
		{0, 1, true},    // 4 workers is within tolerance (8%) of the fastest and much cheaper
		{2, 0, true},    // a CPU budget of 2s leaves only the 1-worker run in budget
		{0.5, 0, false}, // nothing in budget: fall back to the cheapest outright
	} {
		got, in := selectCheapest(steps, Config{CPUBudgetSeconds: c.budget})
		if got != c.want || in != c.inBudget {
			t.Errorf("selectCheapest(budget=%v) = %d, %v; want %d, %v", c.budget, got, in, c.want, c.inBudget)
		}
	}
	if got, _ := selectCheapest(nil, Config{}); got != -1 {
		t.Fatalf("selectCheapest(nil) = %d, want -1", got)
	}
}
