package experiments

import (
	"fmt"
	"strings"
	"time"

	"lotus/internal/workloads"
)

// Fig3Result demonstrates out-of-order batch arrivals: batches that were
// ready before the main process wanted them (logged with the 1 µs no-wait
// marker) while the main process was busy pinning other workers' batches
// (paper Figure 3 / Takeaway 4).
type Fig3Result struct {
	Batches    int
	OOOBatches []int
	// WaitBeforeOOO is the main-process wait for the batch consumed right
	// before each OOO batch — the stall the OOO arrival sat behind.
	Example Fig3Example
}

// Fig3Example documents one concrete out-of-order event.
type Fig3Example struct {
	Found bool
	// BatchID arrived early; it waited DelayedBy after being preprocessed.
	BatchID   int
	DelayedBy time.Duration
}

// RunFig3 runs the IC pipeline with multiple loaders (OOO requires >= 2) and
// extracts the out-of-order events.
func RunFig3(scale Scale) *Fig3Result {
	spec := workloads.ICSpec(scale.samples(768, 8192), 31)
	spec.BatchSize, spec.NumWorkers, spec.GPUs = 64, 4, 4
	a, stats := tracedRun(spec)
	res := &Fig3Result{Batches: stats.Batches, OOOBatches: a.OutOfOrderBatches()}
	for _, bi := range a.Batches() {
		if bi.OutOfOrder() && bi.Delay() > 0 {
			res.Example = Fig3Example{Found: true, BatchID: bi.ID, DelayedBy: bi.Delay()}
			break
		}
	}
	return res
}

// Render summarizes the finding.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("FIGURE 3 — out-of-order arrivals\n\n")
	fmt.Fprintf(&b, "batches: %d; arrived out of order: %d (%.1f%%)\n",
		r.Batches, len(r.OOOBatches), 100*float64(len(r.OOOBatches))/float64(max(1, r.Batches)))
	if r.Example.Found {
		fmt.Fprintf(&b, "example: batch %d was preprocessed %v before the main process consumed it,\n",
			r.Example.BatchID, r.Example.DelayedBy.Round(time.Millisecond))
		b.WriteString("         despite being ready when requested (1µs wait marker) — the main process\n")
		b.WriteString("         was busy pinning other workers' batches from the shared data queue\n")
	}
	b.WriteString("\npaper: the shared data queue among multiple data loaders causes the main process\n")
	b.WriteString("       to wait despite the desired batch being ready (Takeaway 4)\n")
	return b.String()
}
