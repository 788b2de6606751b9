package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one workload × metric comparison.
const (
	verdictPass       = "pass"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictNoisy      = "noisy"
	verdictMissing    = "missing"
)

// series returns the per-epoch values behind an end-to-end metric, when the
// result file has them: they give the spread that decides whether two medians
// can be told apart. cpu_ms_per_sample and setup_s have short series, peak
// RSS has none.
func series(e *workloadEntry, metric string) []float64 {
	var out []float64
	switch metric {
	case "samples_per_s":
		for _, er := range e.Run.Epochs {
			out = append(out, float64(er.Samples)/er.WallS)
		}
	case "first_batch_ms":
		for _, er := range e.Run.Epochs {
			out = append(out, er.FirstBatchMs[:]...)
		}
	case "cpu_ms_per_sample":
		for _, er := range e.Run.Epochs {
			if er.Samples > 0 {
				out = append(out, er.CPUS*1e3/float64(er.Samples))
			}
		}
	case "setup_s":
		out = e.SetupSeries
	}
	return out
}

// separated reports whether every value of one series lies strictly on one
// side of every value of the other.
func separated(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}

// judge applies one metric's bound and direction to an old and a new value.
// When the per-epoch spread of either side exceeds the bound, the medians
// cannot carry a verdict on their own: the comparison is unresolved unless
// the two series do not overlap at all.
func judge(d metricDef, oldV, newV float64, oldS, newS []float64) (verdict string, worse, spread float64) {
	worse = worseBy(d.Better, oldV, newV)
	spread = max(spreadFrac(oldS), spreadFrac(newS))
	if d.Bound == 0 { // exact metrics: any rise fails
		if worse > 0 {
			return verdictRegression, worse, spread
		}
		return verdictPass, worse, spread
	}
	if spread > d.Bound && !separated(oldS, newS) {
		return verdictUnresolved, worse, spread
	}
	if worse > d.Bound {
		return verdictRegression, worse, spread
	}
	return verdictPass, worse, spread
}

// diffFiles prints one row per workload × end-to-end metric and returns the
// number of regressions (a rise in failed_frac is one).
func diffFiles(oldF, newF *resultFile, w io.Writer) int {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tworse by\tbound\tspread\tverdict")
	regressions := 0
	for i := range oldF.Workloads {
		oe := &oldF.Workloads[i]
		ne := newF.workload(oe.Name)
		for _, d := range endToEnd {
			if ne == nil {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\t%s\n", oe.Name, d.Name, verdictMissing)
				regressions++
				continue
			}
			ov, nv := oe.Metrics[d.Name].Value, ne.Metrics[d.Name].Value
			verdict, worse, spread := judge(d, ov, nv, series(oe, d.Name), series(ne, d.Name))
			// A noisy host can fake a regression or hide one; failed_frac
			// does not depend on speed, so it is still judged.
			if (oe.Noisy || ne.Noisy) && d.Bound != 0 {
				verdict = verdictNoisy
			}
			if verdict == verdictRegression {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				oe.Name, d.Name, ov, nv, d.Unit, 100*worse, 100*d.Bound, 100*spread, verdict)
		}
	}
	tw.Flush()
	return regressions
}

// diffMain is `go run ./perf diff old.json new.json`: exit 1 on a regression
// or any rise in failed_frac, 2 on bad usage or unreadable files.
func diffMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: go run ./perf diff old.json new.json")
		return 2
	}
	oldF, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(w, "perf diff:", err)
		return 2
	}
	newF, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(w, "perf diff:", err)
		return 2
	}
	if oldF.Env.CPUModel != newF.Env.CPUModel || oldF.Env.NProc != newF.Env.NProc {
		fmt.Fprintf(w, "warning: different hosts (%s x%d vs %s x%d): timings are not comparable\n",
			oldF.Env.CPUModel, oldF.Env.NProc, newF.Env.CPUModel, newF.Env.NProc)
	}
	if n := diffFiles(oldF, newF, w); n > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", n)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}
