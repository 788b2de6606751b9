package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/workloads"
)

// BenchmarkStragglerTail quantifies the hedging claim: hedged fetches cut the
// p99 epoch latency of a cluster with one degraded node by at least 2x
// without changing a served byte. Three RealData nodes serve pixel payloads;
// the ring's busiest node stalls on the wall clock after every batch it
// preprocesses. The hedge=off series eats the straggler's stall train every
// epoch; hedge=on re-issues the laggard's unserved batches to their
// next-best nodes and takes the first byte-identical answer. Every iteration's
// finished batches are compared against a local run's, so the speedup is
// proven on identical output. The benchmark fails itself unless the
// hedge=off p99 is at least 2x the hedge=on p99, whenever both series run.
func BenchmarkStragglerTail(b *testing.B) {
	spec := hedgeSpec()
	// The victim models a genuinely degraded node — disk contention, a noisy
	// neighbor, thermal throttling — not jitter: every batch it preprocesses
	// eats a 1.5s stall, an order of magnitude over the healthy per-batch
	// cost.
	// Hedging is insurance against exactly this regime; when a "straggler" is
	// only marginally slower than the recompute cost of its work, the race is
	// a coin flip and hedging buys nothing.
	const stall = 1500 * time.Millisecond

	newNode := func(inj *faultinject.Injector) *serve.Server {
		srv := serve.New(serve.Config{
			Spec: spec, Mode: pipeline.RealData, MaterializeDim: realDim, Prefetch: 2, Faults: inj,
		})
		if err := srv.Start("127.0.0.1:0", ""); err != nil {
			b.Fatal(err)
		}
		return srv
	}

	// Ground truth from a local run: a RealData frame carries pixels the
	// client finishes, so the reference is the finished batch.
	want := localFrames(b, spec, pipeline.RealData, realDim, 0)
	// The ring decides the victim the same way regardless of hedging config.
	victim, _ := victimWithLargestShard([]Node{{ID: "node0"}, {ID: "node1"}, {ID: "node2"}}, len(want))

	p99s := make(map[string]float64)
	for _, hedged := range []bool{false, true} {
		name := "hedge=off"
		if hedged {
			name = "hedge=on"
		}
		b.Run(name, func(b *testing.B) {
			nodes := make([]Node, 3)
			for i := range nodes {
				id := fmt.Sprintf("node%d", i)
				var inj *faultinject.Injector
				if id == victim {
					inj = faultinject.New(faultinject.Spec{Seed: 7, StallNth: 1, WorkerStall: stall})
				}
				srv := newNode(inj)
				defer srv.Close()
				nodes[i] = Node{ID: id, Addr: srv.Addr()}
			}
			cfg := Config{Nodes: nodes, Name: "bench-straggler-" + name}
			if hedged {
				cfg.HedgeQuantile = 0.95
			}
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			// hedgeMinSamples (2) arms hedging inside the first epoch, as
			// soon as both healthy peers deliver their first frame. The 400ms
			// floor sits above warm-up jitter (every healthy first frame lands
			// well before it, even time-sharing one core with two other
			// servers) but far below the victim's stall train, so only a
			// genuinely degraded node can still be quiet when a hedge pass is
			// allowed to flag it. On a loaded box a noise hedge is not merely
			// wasted bytes: its recompute steals CPU from the true hedge's
			// critical path.
			c.hedgeMinDelay = 400 * time.Millisecond

			var epochSecs []float64
			totalBatches, totalHedged := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := make(map[int][]byte, len(want))
				var gotMu sync.Mutex // node streams deliver concurrently
				start := time.Now()
				stats, err := c.RunEpoch(0, func(node string, batch *serve.Batch, _ []byte) {
					gotMu.Lock()
					got[batch.GlobalID] = serve.AppendBatch(nil, batch)
					gotMu.Unlock()
				})
				epochSecs = append(epochSecs, time.Since(start).Seconds())
				if err != nil {
					b.Fatal(err)
				}
				if stats.NodeFailures > 0 {
					b.Fatalf("degraded node was declared dead: %+v", stats)
				}
				if len(got) != len(want) {
					b.Fatalf("epoch delivered %d of %d batches", len(got), len(want))
				}
				for id, wantBytes := range want {
					if !bytes.Equal(got[id], wantBytes) {
						b.Fatalf("%s: batch %d not byte-identical to ground truth", name, id)
					}
				}
				totalBatches += stats.Batches
				totalHedged += stats.Hedged
			}
			b.StopTimer()
			sort.Float64s(epochSecs)
			p99 := epochSecs[(len(epochSecs)*99+99)/100-1]
			b.ReportMetric(p99*1000, "p99-epoch-ms")
			p99s[name] = p99 * 1000
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(totalBatches)/sec, "batches/sec")
			}
			if hedged && totalHedged == 0 {
				b.Fatal("hedge=on series never hedged a batch")
			}
		})
	}
	ratioGate(b, p99s, "hedge=off", "hedge=on", 2)
}

// BenchmarkAutotuneImbalanced quantifies the balancer's claim: on a 3-node cluster
// whose busiest node pays ~3x the per-batch cost, the closed-loop balancer
// lifts aggregate routed throughput at least 1.5x over the static partition,
// with every served byte unchanged. The nodes run in emulate-time mode (the
// Simulated pipeline paced on the wall clock) so each node's cadence is its
// own modeled service rate, not this host's core count; the victim's extra
// cost is a virtual stall per preprocessed batch, which emulate mode pays in
// real time. The autotune=off series eats the imbalance every epoch; the
// autotune=on series sheds ring weight from the slow node across epochs and
// settles with the cluster throughput-bound, not victim-bound. Both series
// get the same untimed warm-up epochs, so convergence happens inside the
// measured region for the "on" series too. The benchmark fails itself unless
// autotune=true reaches at least 1.5x autotune=false, whenever both run. The
// margin is thin (1.53x on a 2-vCPU host) because the static partition is
// already near fair: the victim owns 12 of the 32 batches against a fair
// 10.7, so the autotune=false series does not also pay for an oversized
// shard, and only the stall is left for the balancer to shed.
func BenchmarkAutotuneImbalanced(b *testing.B) {
	spec := workloads.ICSpec(256, 7)
	spec.BatchSize = 8 // 32 batches per epoch
	spec.NumWorkers = 2
	// ~2x the healthy modeled per-batch cost on top of base: the victim runs
	// at roughly 3x per batch.
	const stall = 100 * time.Millisecond

	// Ground truth from a local run: an emulate-time node serves the
	// Simulated bytes, only paced.
	want := localFrames(b, spec, pipeline.Simulated, 0, 0)
	// The ring decides the victim the same way regardless of tuning config.
	victim, _ := victimWithLargestShard([]Node{{ID: "node0"}, {ID: "node1"}, {ID: "node2"}}, len(want))

	rates := make(map[string]float64)
	for _, tune := range []bool{false, true} {
		name := fmt.Sprintf("autotune=%v", tune)
		b.Run(name, func(b *testing.B) {
			nodes := make([]Node, 3)
			for i := range nodes {
				id := fmt.Sprintf("node%d", i)
				var inj *faultinject.Injector
				if id == victim {
					inj = faultinject.New(faultinject.Spec{Seed: 7, StallNth: 1, WorkerStall: stall})
				}
				srv := serve.New(serve.Config{
					Spec: spec, Mode: pipeline.Simulated, EmulateTime: true, Prefetch: 4, Faults: inj,
				})
				if err := srv.Start("127.0.0.1:0", ""); err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				nodes[i] = Node{ID: id, Addr: srv.Addr()}
			}
			c, err := New(Config{
				Nodes:    nodes,
				Name:     fmt.Sprintf("bench-autotune-%v", tune),
				AutoTune: tune,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			// Equal untimed warm-up for both series: connections dialed,
			// histograms primed. The "on" series has NOT converged yet — its
			// re-weighting epochs are measured.
			for i := 0; i < 2; i++ {
				if _, err := c.RunEpoch(0, nil); err != nil {
					b.Fatal(err)
				}
			}

			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := make(map[int][]byte, len(want))
				var gotMu sync.Mutex // node streams deliver concurrently
				stats, err := c.RunEpoch(0, func(node string, batch *serve.Batch, payload []byte) {
					gotMu.Lock()
					got[batch.GlobalID] = append([]byte(nil), payload...)
					gotMu.Unlock()
				})
				if err != nil {
					b.Fatal(err)
				}
				if stats.NodeFailures > 0 || stats.Ignored > 0 {
					b.Fatalf("benchmark epoch saw failures: %+v", stats)
				}
				if len(got) != len(want) {
					b.Fatalf("delivered %d of %d batches", len(got), len(want))
				}
				for gid, w := range want {
					if !bytes.Equal(got[gid], w) {
						b.Fatalf("batch %d not byte-identical under autotune=%v", gid, tune)
					}
				}
				total += stats.Batches
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(total)/sec, "batches/sec")
				rates[name] = float64(total) / sec
			}
			if tune {
				b.ReportMetric(c.Weights()[victim], "victim-weight")
			}
		})
	}
	ratioGate(b, rates, "autotune=true", "autotune=false", 1.5)
}

// ratioGate is a self-failing behaviour gate over two series of one
// benchmark: got maps series name to the metric each reported, and b fails
// unless got[num] >= min*got[den]. It judges only when both series ran in
// this invocation (a -bench pattern can select one; a failed series reports
// nothing). Call it from the parent after the b.Run calls that fill got.
func ratioGate(b *testing.B, got map[string]float64, num, den string, min float64) {
	n, okN := got[num]
	d, okD := got[den]
	if !okN || !okD {
		return
	}
	b.Logf("%s %.1f vs %s %.1f: %.2fx (gate >= %.2fx)", num, n, den, d, n/d, min)
	if n < min*d {
		b.Fatalf("%s is %.2fx %s, below the %.2fx gate", num, n/d, den, min)
	}
}
