package experiments

import (
	"fmt"
	"strings"
	"time"

	"lotus/internal/clock"
	"lotus/internal/core/lotusmap"
	"lotus/internal/core/trace"
	"lotus/internal/hwsim"
	"lotus/internal/native"
	"lotus/internal/workloads"
)

// Fig6Result is the § V-D case study: the IC pipeline at batch 1024 on 4
// GPUs with the number of data loader workers swept from 8 to 28, profiled
// end to end with the VTune-like sampler, and the function-level counters
// attributed to preprocessing operations via LotusMap + LotusTrace weights.
type Fig6Result struct {
	Arch    native.Arch
	Mapping *lotusmap.Mapping
	Points  []Fig6Point
	// E2EDropFrac is 1 - e2e(28)/e2e(8); the paper observes ~50%.
	E2EDropFrac float64
	// CPUGrowthFrac is cpu(28)/cpu(8) - 1; the paper observes +53%.
	CPUGrowthFrac float64
	// DiminishingReturns reports whether the marginal e2e improvement of the
	// last step is well below the first step's.
	DiminishingReturns bool
}

// Fig6Point is one worker-count configuration.
type Fig6Point struct {
	Workers int
	// (a) end-to-end epoch time.
	E2E time.Duration
	// (b) total preprocessing CPU seconds and its per-op split.
	TotalCPUSeconds float64
	OpCPUTime       map[string]time.Duration
	// (c,d) the hottest native functions by attributed CPU time.
	TopFunctions []hwsim.FuncRow
	// (e-h) counters attributed per preprocessing operation.
	PerOp map[string]hwsim.Counters
	// Unmapped is what the mapping could not place.
	Unmapped hwsim.Counters
}

// fig6Workers is the paper's sweep.
var fig6Workers = []int{8, 12, 16, 20, 24, 28}

// RunFig6 executes the sweep on the Intel/VTune configuration the paper
// presents; RunFig6Arch generalizes to AMD (whose analysis the paper defers
// to its artifact repository).
func RunFig6(scale Scale) *Fig6Result { return RunFig6Arch(scale, native.Intel) }

// RunFig6Arch executes the worker sweep for the given vendor, using that
// vendor's hardware profiler (VTune-like on Intel, uProf-like on AMD).
func RunFig6Arch(scale Scale, arch native.Arch) *Fig6Result {
	res := &Fig6Result{Arch: arch}
	sampler := func(seed int64) hwsim.SamplerConfig {
		if arch == native.AMD {
			return hwsim.UProfSampler(seed)
		}
		return hwsim.VTuneSampler(seed)
	}

	// One-time preparatory mapping step (§ IV-B): reconstruct the IC
	// mapping on this "machine".
	mapEngine := native.NewEngine(arch, native.DefaultCPU())
	mcfg := lotusmap.DefaultConfig(sampler(61), hwsim.DefaultModel(mapEngine.CPU()))
	if scale == Small {
		mcfg.MaxRuns = 20
	}
	protoSpec := workloads.ICSpec(4, 61)
	protoSpec.Arch = arch
	proto := protoSpec.Prototype()
	proto.Width, proto.Height = proto.Width*2, proto.Height*2
	proto.FileBytes *= 4
	res.Mapping = lotusmap.MapPipeline(mapEngine, protoSpec.MappingCompose(), proto, mcfg)

	// The sweep needs batches >> workers: with fewer batches than workers,
	// dispatch can never keep 28 workers concurrently busy and the
	// contention trends vanish.
	batchSize := 128
	batches := 60
	if scale == Full {
		batchSize = 1024
		batches = 60
	}
	for _, w := range fig6Workers {
		spec := workloads.ICSpec(batchSize*batches, 62)
		spec.BatchSize, spec.GPUs, spec.NumWorkers = batchSize, 4, w
		spec.Arch = arch

		engine := native.NewEngine(arch, native.DefaultCPU())
		sess := hwsim.NewSession(engine)
		sess.Resume(clock.Epoch)

		col := &collector{}
		stats, _, sim := spec.RunWithEngine(col.hooks(), engine)
		sess.Detach(clock.Epoch.Add(sim.Elapsed()))

		a := trace.Analyze(col.records)
		report := sess.Collect(sampler(63), hwsim.DefaultModel(engine.CPU()), "hwprof")
		weights := a.OpWeights(spec.OpOrder())
		att := lotusmap.Attribute(report, res.Mapping, weights)

		point := Fig6Point{
			Workers:         w,
			E2E:             stats.Elapsed,
			TotalCPUSeconds: a.TotalCPUSeconds(),
			OpCPUTime:       a.OpCPUTime(),
			PerOp:           att.PerOp,
			Unmapped:        att.Unmapped,
		}
		top := report.Rows
		if len(top) > 10 {
			top = top[:10]
		}
		point.TopFunctions = append(point.TopFunctions, top...)
		res.Points = append(res.Points, point)
	}

	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.E2E > 0 {
		res.E2EDropFrac = 1 - float64(last.E2E)/float64(first.E2E)
	}
	if first.TotalCPUSeconds > 0 {
		res.CPUGrowthFrac = last.TotalCPUSeconds/first.TotalCPUSeconds - 1
	}
	if len(res.Points) >= 3 {
		firstStep := float64(res.Points[0].E2E - res.Points[1].E2E)
		lastStep := float64(res.Points[len(res.Points)-2].E2E - res.Points[len(res.Points)-1].E2E)
		res.DiminishingReturns = lastStep < firstStep/2
	}
	return res
}

// Render prints the panel series.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 6 — hardware case study: IC, batch 1024, 4 GPUs, workers 8..28 (%s)\n\n", r.Arch)
	b.WriteString("(a,b) end-to-end time and preprocessing CPU seconds\n")
	fmt.Fprintf(&b, "%8s %12s %12s\n", "workers", "e2e", "cpu_sec")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %12v %12.1f\n", p.Workers, p.E2E.Round(time.Millisecond), p.TotalCPUSeconds)
	}
	fmt.Fprintf(&b, "e2e drop 8->28: %s (paper ~50%%); cpu growth: %+.1f%% (paper +53%%); diminishing returns: %v\n\n",
		pct(r.E2EDropFrac), 100*r.CPUGrowthFrac, r.DiminishingReturns)

	if len(r.Points) > 0 {
		b.WriteString("(c,d) hottest native functions at the highest worker count\n")
		last := r.Points[len(r.Points)-1]
		for _, row := range last.TopFunctions {
			fmt.Fprintf(&b, "  %-40s %-40s %10v\n", row.Symbol, row.Library, row.Counters.CPUTime.Round(time.Millisecond))
		}
		b.WriteString("\n")
	}

	b.WriteString("(e-h) per-operation hardware metrics vs workers\n")
	ops := []string{"Loader", "RandomResizedCrop", "ToTensor", "Normalize", "Collate"}
	for _, op := range ops {
		fmt.Fprintf(&b, "%s\n", op)
		fmt.Fprintf(&b, "  %8s %12s %14s %10s %10s\n", "workers", "cpu_time", "uops/cycle", "fe_bound", "dram_bound")
		for _, p := range r.Points {
			c, ok := p.PerOp[op]
			if !ok {
				continue
			}
			upc := 0.0
			if c.Cycles > 0 {
				upc = c.UopsDelivered / c.Cycles
			}
			fmt.Fprintf(&b, "  %8d %12v %14.2f %10s %10s\n",
				p.Workers, c.CPUTime.Round(time.Millisecond), upc,
				pct(c.FrontEndBoundFrac()), pct(c.DRAMBoundFrac()))
		}
	}
	b.WriteString("\npaper: CPU time rises for all ops; µop supply to the backend falls (f), the\n")
	b.WriteString("       workload becomes front-end bound (g), and DRAM-bound stalls fall (h)\n")
	return b.String()
}
