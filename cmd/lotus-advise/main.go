// Command lotus-advise runs the automated log analysis over a LotusTrace
// log: a rule-based bottleneck diagnosis (preprocessing-bound vs GPU-bound,
// out-of-order pressure, per-batch variance, dominant operations) with
// concrete numbers and remediation hints — the "automated log analysis" the
// paper's conclusion lists as the tool's next feature.
//
// Usage:
//
//	lotus-advise -log run.lotustrace
//	lotus-advise -log run.lotustrace -long-wait 250ms -dominant 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lotus/internal/core/trace"
)

func main() {
	var (
		logPath  = flag.String("log", "run.lotustrace", "LotusTrace log input")
		longWait = flag.Duration("long-wait", trace.DefaultLongWait, "wait threshold indicating GPU stalls")
		longDly  = flag.Duration("long-delay", 500*time.Millisecond, "delay threshold indicating queueing")
		variance = flag.Float64("variance", 0.15, "per-batch stddev/mean warning threshold")
		dominant = flag.Float64("dominant", 0.6, "dominant-operation CPU share threshold")
	)
	flag.Parse()

	f, err := os.Open(*logPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-advise: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	recs, err := trace.ReadLog(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-advise: parse: %v\n", err)
		os.Exit(1)
	}

	a := trace.Analyze(recs)
	findings := a.Advise(trace.AdvisorConfig{
		LongWait:        *longWait,
		LongDelay:       *longDly,
		HighVariance:    *variance,
		DominantOpShare: *dominant,
	})

	fmt.Printf("analyzed %d records, %d batches\n\n", len(recs), len(a.Batches()))
	fmt.Print(trace.FormatFindings(findings))

	// Exit non-zero when something critical was found, so the command works
	// as a CI gate on pipeline regressions.
	for _, fd := range findings {
		if fd.Severity == trace.Critical {
			os.Exit(3)
		}
	}
}
