package experiments

import (
	"fmt"
	"strings"
	"time"

	"lotus/internal/autotune"
	"lotus/internal/clock"
	"lotus/internal/core/lotusmap"
	"lotus/internal/core/trace"
	"lotus/internal/hwsim"
	"lotus/internal/native"
	"lotus/internal/pipeline"
	"lotus/internal/workloads"
)

// ExtensionsResult collects the beyond-the-paper studies: the optimization
// directions the paper points at (Takeaways 2, 4, 5 and the § IV-B
// future-work refinement), each evaluated against the simulator's oracles.
type ExtensionsResult struct {
	// Dispatch policy comparison (Takeaway 4 / SpeedyLoader direction).
	ProducerOOO, LeastWorkOOO           int
	ProducerMaxDelay, LeastWorkMaxDelay time.Duration

	// Offline preprocessing (Takeaway 2).
	OnlineEpoch, OfflineEpoch     time.Duration
	OnlineGPUUtil, OfflineGPUUtil float64

	// Attribution refinement (§ IV-B future work) scored against the
	// ground-truth oracle.
	BasicAttrError, RefinedAttrError float64

	// Autotuner (Takeaway 5): evaluations needed per pipeline.
	ICTuneSteps, ISTuneSteps   int
	ICTuneChoice, ISTuneChoice int
	ICTuneReason, ISTuneReason string
}

// RunExtensions executes all extension studies.
func RunExtensions(scale Scale) *ExtensionsResult {
	res := &ExtensionsResult{}

	// --- dispatch policies ---
	runDispatch := func(policy pipeline.DispatchPolicy) (int, time.Duration) {
		spec := workloads.ICSpec(scale.samples(64*30, 64*120), 81)
		spec.BatchSize, spec.GPUs, spec.NumWorkers = 64, 4, 4
		spec.Dispatch = policy
		a, _ := tracedRun(spec)
		return len(a.OutOfOrderBatches()), a.MaxDelay()
	}
	res.ProducerOOO, res.ProducerMaxDelay = runDispatch(pipeline.DispatchProducer)
	res.LeastWorkOOO, res.LeastWorkMaxDelay = runDispatch(pipeline.DispatchLeastWork)

	// --- offline preprocessing ---
	online := workloads.ICSpec(scale.samples(512, 4096), 82)
	onStats, _, _ := online.Run(nil)
	offline := workloads.ICSpec(scale.samples(512, 4096), 82)
	offline.OfflineDecode = true
	offStats, _, _ := offline.Run(nil)
	res.OnlineEpoch, res.OfflineEpoch = onStats.Elapsed, offStats.Elapsed
	res.OnlineGPUUtil, res.OfflineGPUUtil = onStats.GPUUtilization(), offStats.GPUUtilization()

	// --- attribution refinement vs oracle ---
	res.BasicAttrError, res.RefinedAttrError = attributionErrors(scale)

	// --- autotuner ---
	icSpec := workloads.ICSpec(scale.samples(640, 2560), 83)
	icSpec.BatchSize, icSpec.GPUs = 64, 4
	ic := autotune.Tune(icSpec, autotune.Config{MinWorkers: 1, MaxWorkers: 16})
	res.ICTuneSteps, res.ICTuneChoice, res.ICTuneReason = len(ic.Steps), ic.Best.Workers, ic.StopReason
	is := autotune.Tune(workloads.ISSpec(scale.samples(24, 64), 84), autotune.Config{MinWorkers: 2, MaxWorkers: 16})
	res.ISTuneSteps, res.ISTuneChoice, res.ISTuneReason = len(is.Steps), is.Best.Workers, is.StopReason

	return res
}

// attributionErrors runs one traced+recorded epoch, reconstructs the
// mapping, and scores both splitting schemes against TrueOpCounters.
func attributionErrors(scale Scale) (basic, refined float64) {
	engine := native.NewEngine(native.Intel)
	rec := native.NewRecording()
	engine.Attach(rec)

	col := &trace.Collector{}
	spec := workloads.ICSpec(scale.samples(120, 640), 85)
	spec.BatchSize, spec.NumWorkers = 12, 2
	_, _, sim := spec.RunWithEngine(col.Hooks(), engine)
	engine.Detach()

	cfg := lotusmap.DefaultConfig(hwsim.UProfSampler(86))
	proto := spec.Prototype()
	proto.Width, proto.Height, proto.FileBytes = proto.Width*2, proto.Height*2, proto.FileBytes*4
	mapping := lotusmap.MapPipeline(engine, spec.MappingCompose(), proto, cfg)

	sampler := hwsim.UProfSampler(87)
	window := hwsim.TimeRange{Start: clock.Epoch, End: clock.Epoch.Add(sim.Elapsed())}
	report := hwsim.BuildReport(hwsim.NewSampler(sampler).Run(rec, []hwsim.TimeRange{window}), "uprof", engine.Arch())

	a := trace.Analyze(col.Records())
	weights := a.OpWeights(spec.OpOrder())
	truth := lotusmap.TrueOpCounters(rec, col.Records())
	basic = lotusmap.AttributionError(lotusmap.Attribute(report, mapping, weights), truth)
	refined = lotusmap.AttributionError(lotusmap.AttributeRefined(report, mapping, weights), truth)
	return basic, refined
}

// Render prints the four studies.
func (r *ExtensionsResult) Render() string {
	var b strings.Builder
	b.WriteString("EXTENSIONS — optimization directions the paper motivates, evaluated on the simulator\n\n")

	b.WriteString("Takeaway 4 — index dispatch policy (IC, b=64, 4 workers, 4 GPUs):\n")
	fmt.Fprintf(&b, "  producer (PyTorch):    %3d OOO arrivals, max delay %v\n",
		r.ProducerOOO, r.ProducerMaxDelay.Round(time.Millisecond))
	fmt.Fprintf(&b, "  least-work+size-aware: %3d OOO arrivals, max delay %v\n\n",
		r.LeastWorkOOO, r.LeastWorkMaxDelay.Round(time.Millisecond))

	b.WriteString("Takeaway 2 — offline decode (IC, Table II config):\n")
	fmt.Fprintf(&b, "  online:  epoch %v, GPU utilization %s\n",
		r.OnlineEpoch.Round(time.Millisecond), pct(r.OnlineGPUUtil))
	fmt.Fprintf(&b, "  offline: epoch %v, GPU utilization %s\n\n",
		r.OfflineEpoch.Round(time.Millisecond), pct(r.OfflineGPUUtil))

	b.WriteString("§ IV-B future work — hardware-metric splitting vs ground-truth oracle:\n")
	fmt.Fprintf(&b, "  basic elapsed-time weights:  error %.3f\n", r.BasicAttrError)
	fmt.Fprintf(&b, "  refined per-function mix:    error %.3f\n\n", r.RefinedAttrError)

	b.WriteString("Takeaway 5 — trace-signal autotuner:\n")
	fmt.Fprintf(&b, "  IC: %d evaluations -> %d workers (%s)\n", r.ICTuneSteps, r.ICTuneChoice, r.ICTuneReason)
	fmt.Fprintf(&b, "  IS: %d evaluations -> %d workers (%s)\n", r.ISTuneSteps, r.ISTuneChoice, r.ISTuneReason)
	return b.String()
}
