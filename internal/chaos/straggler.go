package chaos

import (
	"fmt"
	"time"

	"lotus/internal/cluster"
	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
	"lotus/internal/testutil"
)

// The straggler cell exercises hedged cluster fetches over loopback TCP. A
// hedge is a pure scheduling move — batch bytes depend only on (spec, seed,
// epoch, plan), so a hedged batch must be byte-identical to the unmitigated
// run, and every duplicate a hedge produces must be absorbed by the
// exactly-once ledger.

// clusterHedgeSlowNodeCell degrades the busiest node with a real wall-clock
// stall on every batch it produces (RealData servers, so the stall actually
// blocks the stream) and turns hedging on. The routed epoch must finish
// byte-identical and exactly-once, at least one batch must be hedged, every
// exactly-once rejection must be a hedge loser (Ignored == HedgeWasted), and
// the merely-slow node must never be declared dead or rerouted away from —
// hedging is a latency move, not a failover.
func clusterHedgeSlowNodeCell(seed int64) Result {
	res := Result{Class: "cluster-hedge-slow-node", Workload: "IC"}
	// The stall must make the victim a clear outlier against its peers'
	// latency quantiles even on a loaded single-core host, where healthy
	// first frames already cost a few hundred ms of warm-up: the monitor
	// judges relative progress, not absolute lateness, so a marginal stall
	// would (correctly) never be flagged. The kick severs the victim once
	// its batches are hedged and the stall interrupt releases its sleeping
	// workers, so a fat stall does not linger into teardown.
	inj := faultinject.New(faultinject.Spec{Seed: seed, StallNth: 1, WorkerStall: 2 * time.Second})
	baseline := testutil.Baseline()
	h, err := startClusterHarness(serveSpec(seed), func() *faultinject.Injector { return inj },
		serverOpts{mode: pipeline.RealData})
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
		return res
	}
	defer h.close()

	c, err := cluster.New(cluster.Config{
		Nodes:           h.nodes,
		Name:            "chaos-hedge",
		HedgeQuantile:   0.95,
		HedgeMinSamples: 2,
		// High enough that a healthy peer's scheduling hiccup rarely draws
		// a noise hedge (wasted recompute steals CPU from the real one on
		// this host), far below the 2s stall train.
		HedgeMinDelay: 250 * time.Millisecond,
	})
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
		return res
	}
	defer c.Close()

	sink := newClusterSink()
	stats, err := c.RunEpoch(0, sink.onBatch)
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("hedged epoch failed: %v", err))
	} else {
		res.Failures = sink.check(h.expected, res.Failures)
		if stats.Hedged == 0 {
			res.Failures = append(res.Failures, "no batches hedged off a node stalling every batch")
		}
		if stats.Ignored != stats.HedgeWasted {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"Ignored=%d HedgeWasted=%d: a duplicate was not a hedge loser", stats.Ignored, stats.HedgeWasted))
		}
		if stats.NodeFailures != 0 || stats.Rerouted != 0 {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"hedging escalated to failover: failures=%d rerouted=%d", stats.NodeFailures, stats.Rerouted))
		}
		// The successors served the speculative requests; their /metrics hedge
		// block must have surfaced them.
		var hedgeServed int64
		for i, n := range h.nodes {
			if n.ID == h.victim {
				continue
			}
			snap := h.srvs[i].Metrics().Snapshot(time.Now(), 0)
			if snap.Hedge != nil {
				hedgeServed += snap.Hedge.Batches
			}
		}
		if hedgeServed == 0 {
			res.Failures = append(res.Failures, "no successor's /metrics recorded a hedged ShardReq")
		}
		res.Notes = append(res.Notes, fmt.Sprintf("hedged=%d won=%d wasted=%d served=%d",
			stats.Hedged, stats.HedgeWon, stats.HedgeWasted, hedgeServed))
	}
	c.Close()
	h.close()
	if err := testutil.WaitNoLeaks(baseline, 5*time.Second); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	// The kick severs the victim's stream at a wall-clock point, so the raw
	// stall count varies run to run; report injection as a binary to keep
	// sweeps seed-deterministic.
	if inj.Counts().WorkerStalls > 0 {
		res.Injected = 1
	}
	if res.Injected == 0 {
		res.Failures = append(res.Failures, "fault class injected nothing")
	}
	return res
}
