// Command lotus-fetch is the reference client for lotus-serve: it joins as
// one rank of a world, pulls N epochs of its shard, and reports end-to-end
// throughput plus a per-batch arrival-latency histogram.
//
// Usage:
//
//	lotus-fetch -addr localhost:9317 -epochs 2 -rank 0 -world 2
//
// Transient failures (refused connections, resets, mid-stream EOF) and a
// busy reply from the server's admission control are retried on a jittered,
// capped exponential backoff — the first connect included — by reconnecting
// and re-requesting the failed epoch; fatal server errors abort.
//
// Each epoch is one request naming the rank's shard of the plan (batches
// rank, rank+world, ...), and the stream is checked frame by frame against
// it. Several -addr endpoints need -cluster: failover across servers is the
// cluster router's.
//
// Cluster mode: -cluster partitions every epoch's full batch plan across
// the -addr nodes with a consistent-hash ring and streams the shards
// concurrently; a node death mid-epoch re-routes its unserved batches to
// survivors, preserving exactly-once delivery:
//
//	lotus-fetch -cluster -addr host1:9317,host2:9317,host3:9317 -epochs 2
//
// A node whose fetch fails stays down until the next epoch's start, when the
// router dials it once more; the closing per-node lines say which nodes were
// up at the end.
//
// -rank/-world are ignored in cluster mode (the router consumes whole
// plans).
//
// -hedge-quantile arms straggler hedging in cluster mode: when a node goes
// quiet past that quantile of the observed batch-arrival latency, its
// unserved batches are speculatively re-requested from their ring successors
// and the first byte-identical answer wins (duplicates are absorbed by the
// exactly-once ledger and reported as wasted hedges).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"lotus/internal/cluster"
	"lotus/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:9317", "server wire address, or with -cluster a comma-separated member list")
		clustered   = flag.Bool("cluster", false, "consistent-hash route whole epoch plans across the -addr nodes with mid-epoch failover")
		replication = flag.Int("replication", 1, "cluster mode: preferred replica-set size per batch on the hash ring")
		hedgeQ      = flag.Float64("hedge-quantile", 0, "cluster mode: hedge a node's unserved batches to its ring successor once it lags past this latency quantile (e.g. 0.95; 0 disables)")
		epochs      = flag.Int("epochs", 2, "epochs to stream")
		rank        = flag.Int("rank", 0, "this client's shard rank")
		world       = flag.Int("world", 1, "total shard count")
		name        = flag.String("name", "", "session label in server metrics")
		tenant      = flag.String("tenant", "", "QoS tenant this session bills to (empty = server default tenant)")
		retries     = flag.Int("retries", 4, "reconnect attempts per epoch on transient failures")
		quiet       = flag.Bool("quiet", false, "suppress per-epoch progress lines")
		autotune    = flag.Bool("autotune", false, "cluster mode: re-weight each node's hash-ring share from its observed per-batch cadence so slow nodes shed load until throughput converges")
	)
	flag.Parse()

	var endpoints []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			endpoints = append(endpoints, a)
		}
	}
	if len(endpoints) == 0 {
		fmt.Fprintln(os.Stderr, "lotus-fetch: -addr names no endpoint")
		os.Exit(2)
	}

	if *clustered {
		runCluster(endpoints, *epochs, *replication, *hedgeQ, *name, *tenant, *quiet, *autotune)
		return
	}
	if len(endpoints) > 1 {
		fmt.Fprintln(os.Stderr, "lotus-fetch: several -addr endpoints need -cluster (a plain fetch talks to one server)")
		os.Exit(2)
	}

	client := serve.NewClient(serve.ClientConfig{
		Addr:    endpoints[0],
		Rank:    *rank,
		World:   *world,
		Name:    *name,
		Tenant:  *tenant,
		Retries: *retries,
		OnRetry: func(epoch, attempt int, err error) {
			log.Printf("lotus-fetch: epoch %d attempt %d failed (%v), retrying", epoch, attempt, err)
		},
	})
	defer client.Close()

	// The initial connect honors the same retry contract as Run: a CodeBusy
	// refusal is the server's admission control asking this client to come
	// back on its jittered backoff, not a fatal error.
	if err := client.ConnectRetrying(); err != nil {
		fmt.Fprintf(os.Stderr, "lotus-fetch: connect %s: %v\n", endpoints[0], err)
		os.Exit(1)
	}
	ack, _ := client.Ack()
	modeName := "sim"
	if ack.Mode == 1 {
		modeName = "real"
	}
	fmt.Printf("lotus-fetch: %s workload %s (%s): %d samples, batch %d; shard %d/%d -> %d of %d batches/epoch\n",
		endpoints[0], ack.Workload, modeName, ack.DatasetLen, ack.BatchSize,
		*rank, *world, serve.ShardSize(ack.PlanBatches, *rank, *world), ack.PlanBatches)

	epochBatches := 0
	curEpoch := -1
	onBatch := func(b *serve.Batch, payload []byte) {
		if b.Epoch != curEpoch {
			if curEpoch >= 0 && !*quiet {
				fmt.Printf("lotus-fetch: epoch %d: %d batches\n", curEpoch, epochBatches)
			}
			curEpoch, epochBatches = b.Epoch, 0
		}
		epochBatches++
	}
	stats, err := client.Run(*epochs, onBatch)
	if curEpoch >= 0 && !*quiet {
		fmt.Printf("lotus-fetch: epoch %d: %d batches\n", curEpoch, epochBatches)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-fetch: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("lotus-fetch: %d epochs, %d batches, %.1f MB in %v (%.1f batches/sec, %d retries)\n",
		stats.Epochs, stats.Batches, float64(stats.Bytes)/(1<<20),
		stats.Elapsed.Round(time.Millisecond), stats.BatchesPerSec(), stats.Retries)
	fmt.Println(stats.Hist.String())
}

// runCluster consumes epochs through the consistent-hash cluster router
// instead of a single rank/world session.
func runCluster(endpoints []string, epochs, replication int, hedgeQuantile float64, name, tenant string, quiet, autotune bool) {
	nodes := make([]cluster.Node, len(endpoints))
	for i, a := range endpoints {
		nodes[i] = cluster.Node{ID: a, Addr: a}
	}
	if name == "" {
		name = "lotus-fetch"
	}
	c, err := cluster.New(cluster.Config{
		Nodes:         nodes,
		Replication:   replication,
		Name:          name,
		Tenant:        tenant,
		HedgeQuantile: hedgeQuantile,
		AutoTune:      autotune,
		Logf:          log.Printf,
		OnReroute: func(epoch int, ids []int) {
			log.Printf("lotus-fetch: epoch %d: rerouting %d batches to survivors", epoch, len(ids))
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-fetch: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	perEpoch := 0
	stats, err := c.Run(epochs, func(node string, b *serve.Batch, payload []byte) {
		perEpoch++
		if !quiet && b != nil && perEpoch%64 == 0 {
			log.Printf("lotus-fetch: epoch %d: %d batches so far", b.Epoch, perEpoch)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lotus-fetch: %v\n", err)
		os.Exit(1)
	}
	if ack, ok := c.Ack(); ok {
		fmt.Printf("lotus-fetch: cluster of %d nodes, workload %s: %d samples, batch %d, %d batches/epoch\n",
			len(nodes), ack.Workload, ack.DatasetLen, ack.BatchSize, ack.PlanBatches)
	}
	fmt.Printf("lotus-fetch: %d epochs, %d batches, %.1f MB in %v (%.1f batches/sec; rerouted=%d node_failures=%d)\n",
		stats.Epochs, stats.Batches, float64(stats.Bytes)/(1<<20),
		stats.Elapsed.Round(time.Millisecond), stats.BatchesPerSec(),
		stats.Rerouted, stats.NodeFailures)
	if hedgeQuantile > 0 {
		fmt.Printf("lotus-fetch: hedged=%d won=%d wasted=%d\n",
			stats.Hedged, stats.HedgeWon, stats.HedgeWasted)
	}
	alive, weights := c.Alive(), c.Weights()
	for _, n := range nodes {
		state := "down"
		if alive[n.ID] {
			state = "alive"
		}
		line := fmt.Sprintf("lotus-fetch:   %-24s %6d batches (%s)", n.ID, stats.PerNode[n.ID], state)
		if autotune {
			line += fmt.Sprintf(" weight %.2f", weights[n.ID])
		}
		fmt.Println(line)
	}
}
