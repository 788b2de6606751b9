package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lotus/internal/control"
)

// This file implements the automated log analysis the paper's conclusion
// lists as the next feature: a rule-based advisor that reads a LotusTrace
// log and produces the bottleneck diagnosis a practitioner would otherwise
// assemble by hand from the § V analyses.

// Severity ranks a finding.
type Severity int

const (
	Info Severity = iota
	Warning
	Critical
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	}
	return "unknown"
}

// Finding is one diagnostic produced by the advisor.
type Finding struct {
	Severity Severity
	// Rule identifies the diagnostic, e.g. "preprocessing-bound".
	Rule string
	// Detail is the human-readable explanation with the numbers that fired
	// the rule.
	Detail string
}

// AdvisorConfig tunes the rule thresholds. Zero values take defaults.
type AdvisorConfig struct {
	// LongWait is the wait threshold that indicates GPU stalls (paper: the
	// GPU batch time; 500ms in Figure 5).
	LongWait time.Duration
	// LongDelay flags batches that sat preprocessed without being consumed.
	LongDelay time.Duration
	// HighVariance flags per-batch preprocessing stddev/mean above this.
	HighVariance float64
	// DominantOpShare flags a single operation consuming more than this
	// share of preprocessing CPU time.
	DominantOpShare float64
}

func (c AdvisorConfig) defaults() AdvisorConfig {
	if c.LongWait == 0 {
		c.LongWait = 500 * time.Millisecond
	}
	if c.LongDelay == 0 {
		c.LongDelay = 500 * time.Millisecond
	}
	if c.HighVariance == 0 {
		c.HighVariance = 0.15
	}
	if c.DominantOpShare == 0 {
		c.DominantOpShare = 0.6
	}
	return c
}

// Advise runs every rule over the analysis and returns findings ordered by
// severity (critical first), then rule name.
func (a *Analysis) Advise(cfg AdvisorConfig) []Finding {
	cfg = cfg.defaults()
	var out []Finding

	batches := a.Batches()
	if len(batches) == 0 {
		return []Finding{{Severity: Warning, Rule: "empty-trace",
			Detail: "the log contains no batch records; was tracing enabled on both the Compose and the DataLoader?"}}
	}

	// Rule: preprocessing-bound — large fraction of long main-process waits
	// means the accelerator starves (§ V-C2). The threshold is the shared
	// bottleneck model's: the offline tuner keeps adding workers at exactly
	// the point this advisor tells the operator to.
	if frac := a.WaitsOver(cfg.LongWait); frac > control.HighWaitFrac {
		out = append(out, Finding{
			Severity: Critical,
			Rule:     "preprocessing-bound",
			Detail: fmt.Sprintf("the main process waited >%v for %.0f%% of batches; the accelerator is stalling on preprocessing — add data loader workers, move work offline, or cache decoded inputs",
				cfg.LongWait, 100*frac),
		})
	}

	// Rule: gpu-bound — batches consistently sit preprocessed long before
	// consumption (§ V-B, Figure 2 b/c).
	if frac := a.DelaysOver(cfg.LongDelay); frac > 0.5 && a.WaitsOver(cfg.LongWait) < control.StallFreeWaitFrac {
		out = append(out, Finding{
			Severity: Info,
			Rule:     "gpu-bound",
			Detail: fmt.Sprintf("%.0f%% of batches waited >%v after preprocessing before the model consumed them; preprocessing is NOT the bottleneck — worker count could be reduced to reclaim CPU",
				100*frac, cfg.LongDelay),
		})
	}

	// Rule: out-of-order pressure — OOO arrivals from the shared data queue
	// delay ready batches (Takeaway 4).
	if ooo := a.OutOfOrderBatches(); len(ooo) > 0 {
		var worst time.Duration
		for _, b := range batches {
			if b.OutOfOrder() && b.Delay() > worst {
				worst = b.Delay()
			}
		}
		sev := Info
		if float64(len(ooo))/float64(len(batches)) > 0.3 && worst > cfg.LongDelay {
			sev = Warning
		}
		out = append(out, Finding{
			Severity: sev,
			Rule:     "out-of-order-arrivals",
			Detail: fmt.Sprintf("%d/%d batches arrived before they were wanted (worst sat ready for %v); consider smarter index dispatch or batch reordering",
				len(ooo), len(batches), worst.Round(time.Millisecond)),
		})
	}

	// Rule: high per-batch variance — provisioning hazard (Takeaway 3).
	if st := ComputeDistStats(a.PreprocessTimes()); st.N > 4 && st.StdOfMean > cfg.HighVariance {
		out = append(out, Finding{
			Severity: Warning,
			Rule:     "high-batch-variance",
			Detail: fmt.Sprintf("per-batch preprocessing time varies widely (stddev %.0f%% of the %.0fms mean); static worker provisioning will over- or under-shoot",
				100*st.StdOfMean, float64(st.Mean)/1e6),
		})
	}

	// Rule: worker imbalance — one worker does far more than another,
	// usually from size skew under producer dispatch.
	if util := a.WorkerUtilization(); util.Imbalance > 1.5 {
		out = append(out, Finding{
			Severity: Warning,
			Rule:     "worker-imbalance",
			Detail: fmt.Sprintf("busiest worker did %.1fx the work of the least busy across %d workers; size-aware dispatch (DispatchLeastWork with a cost hint) would even the load",
				util.Imbalance, len(util.PerWorker)),
		})
	}

	// Rule: dominant operation — one op eats most preprocessing CPU time;
	// that is where optimization effort should go.
	times := a.OpCPUTime()
	var total time.Duration
	for _, d := range times {
		total += d
	}
	if total > 0 {
		type opShare struct {
			op    string
			share float64
		}
		var shares []opShare
		for op, d := range times {
			shares = append(shares, opShare{op, float64(d) / float64(total)})
		}
		sort.Slice(shares, func(i, j int) bool { return shares[i].share > shares[j].share })
		if shares[0].share > cfg.DominantOpShare {
			out = append(out, Finding{
				Severity: Info,
				Rule:     "dominant-operation",
				Detail: fmt.Sprintf("operation %s accounts for %.0f%% of preprocessing CPU time; profile it at the hardware level with LotusMap before optimizing anything else",
					shares[0].op, 100*shares[0].share),
			})
		}
	}

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// FormatFindings renders findings as a report.
func FormatFindings(fs []Finding) string {
	if len(fs) == 0 {
		return "no findings: the pipeline looks healthy\n"
	}
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "[%-8s] %-22s %s\n", f.Severity, f.Rule, f.Detail)
	}
	return b.String()
}
