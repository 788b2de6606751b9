// Command lotus-serve runs the disaggregated preprocessing service: one
// workload pipeline served over TCP to any number of lotus-fetch (or custom)
// clients, with live observability on an HTTP sidecar.
//
// Usage:
//
//	lotus-serve -workload IC -samples 5120 -addr :9317 -http :9318
//
// It serves real pixels, synthesized at up to -materialize-dim px (256 by
// default, what the perf benchmark measures).
//
// Clients handshake with a rank/world pair and receive disjoint shards of
// every epoch's batch plan; /metrics and /trace expose live throughput and a
// Chrome-Trace view of the serving pipeline while it runs. SIGINT/SIGTERM
// starts a graceful drain (in-flight epochs finish, bounded by -drain).
//
// Cluster mode needs nothing here: start the same workload on every node and
// point lotus-fetch -cluster at them. Nodes never coordinate work — the
// deterministic epoch plan plus the consumer-side rendezvous-hash router
// (internal/cluster) partition it — and the router learns which nodes are up
// from its own fetches.
//
// Persistent cache: -disk-cache-dir roots a content-addressed disk tier
// under the in-memory caches. Frames and sample snapshots spill there as
// they are produced, survive restarts (even SIGKILL — the segments are the
// index: a restart reads every record header, checksummed, and a record a
// kill tore is dropped and recomputed), and are shared by any job pointed at
// the same directory:
//
//	lotus-serve -workload ICA -cache-mb 256 -sample-cache-mb 256 \
//	    -disk-cache-dir /var/cache/lotus -disk-cache-gb 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/workloads"
)

func main() {
	var (
		addr     = flag.String("addr", ":9317", "wire protocol listen address")
		httpAddr = flag.String("http", ":9318", "observability sidecar address (empty = disabled)")
		workload = flag.String("workload", "IC", "pipeline: IC, ICA, IS, or OD")
		samples  = flag.Int("samples", 5120, "dataset size")
		batch    = flag.Int("batch", 0, "batch size (0 = workload default)")
		workers  = flag.Int("workers", 0, "size of the server-wide preprocessing worker pool every session shares (0 = workload default)")
		queue    = flag.Int("queue", 4, "per-session prefetch window: batches that may be outstanding ahead of the one being written")
		seed     = flag.Int64("seed", 1, "randomness root")
		matDim   = flag.Int("materialize-dim", 256, "synthesized image resolution cap")
		cacheMB  = flag.Int64("cache-mb", 256, "materialized-batch cache budget in MiB (0 = disabled); cached epochs are served without re-running the pipeline")
		scacheMB = flag.Int64("sample-cache-mb", 0, "split-point sample cache budget in MiB (0 = disabled); materializes each sample's deterministic prefix once so augmented epochs skip decode work")
		diskDir  = flag.String("disk-cache-dir", "", "persistent cache directory (empty = disabled); spilled frames and sample snapshots survive restarts and are shared across jobs pointing at the same directory")
		diskGB   = flag.Float64("disk-cache-gb", 4, "persistent cache budget in GiB (segment-granularity LRU eviction above it)")
		drain    = flag.Duration("drain", 15*time.Second, "graceful drain budget on SIGINT/SIGTERM")
		autotune = flag.Bool("autotune", false, "closed-loop controller: observe wait and queue signals at every completed epoch and retune the worker pool and the prefetch window at runtime")

		maxSessions = flag.Int("max-sessions", 0, "admission control: concurrent session cap (0 = unlimited); excess connections queue briefly, then get a retryable busy reply")
		admitWait   = flag.Duration("admit-wait", 2*time.Second, "admission control: how long an excess connection waits for a slot before busy-rejection (negative = reject immediately when full)")
		qos         = flag.Bool("qos", false, "enable per-tenant QoS (fair scheduling + rate limits) even with no -tenant-limit entries")
		pprofOn     = flag.Bool("pprof", false, "expose /debug/pprof on the observability sidecar")
	)
	tenants := map[string]serve.TenantLimit{}
	flag.Func("tenant-limit",
		"per-tenant QoS limit, repeatable: name:weight=W,bytes=N,batches=N (rates per second, 0 = unlimited); implies -qos",
		func(s string) error {
			name, spec, _ := strings.Cut(s, ":")
			if name = strings.TrimSpace(name); name == "" {
				return fmt.Errorf("tenant-limit %q: empty tenant name", s)
			}
			var lim serve.TenantLimit
			for _, kv := range strings.Split(spec, ",") {
				if kv = strings.TrimSpace(kv); kv == "" {
					continue
				}
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return fmt.Errorf("tenant-limit %q: %q is not key=value", s, kv)
				}
				n, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("tenant-limit %q: %q: %v", s, kv, err)
				}
				switch k {
				case "weight":
					lim.Weight = n
				case "bytes":
					lim.BytesPerSec = int64(n)
				case "batches":
					lim.BatchesPerSec = int64(n)
				default:
					return fmt.Errorf("tenant-limit %q: unknown key %q (want weight, bytes, or batches)", s, k)
				}
			}
			tenants[name] = lim
			return nil
		})
	flag.Parse()

	if *samples < 1 {
		fmt.Fprintf(os.Stderr, "lotus-serve: -samples %d: the dataset needs at least one sample\n", *samples)
		os.Exit(2)
	}
	var spec workloads.Spec
	switch workloads.Kind(*workload) {
	case workloads.IC:
		spec = workloads.ICSpec(*samples, *seed)
	case workloads.ICA:
		spec = workloads.ICASpec(*samples, *seed)
	case workloads.IS:
		spec = workloads.ISSpec(*samples, *seed)
	case workloads.OD:
		spec = workloads.ODSpec(*samples, *seed)
	default:
		fmt.Fprintf(os.Stderr, "lotus-serve: unknown workload %q (want IC, ICA, IS, or OD)\n", *workload)
		os.Exit(2)
	}
	if *batch > 0 {
		spec.BatchSize = *batch
	}
	if *workers > 0 {
		spec.NumWorkers = *workers
	}

	srv := serve.New(serve.Config{
		Spec:             spec,
		Mode:             pipeline.RealData,
		Prefetch:         *queue,
		MaterializeDim:   *matDim,
		BatchCacheBytes:  *cacheMB << 20,
		SampleCacheBytes: *scacheMB << 20,
		DiskCacheDir:     *diskDir,
		DiskCacheBytes:   int64(*diskGB * float64(1<<30)),
		AutoTune:         *autotune,
		MaxSessions:      *maxSessions,
		AdmitWait:        *admitWait,
		QoS:              *qos,
		Tenants:          tenants,
		Pprof:            *pprofOn,
		Logf:             log.Printf,
	})
	if err := srv.Start(*addr, *httpAddr); err != nil {
		fmt.Fprintf(os.Stderr, "lotus-serve: %v\n", err)
		os.Exit(1)
	}
	if h := srv.HTTPAddr(); h != "" {
		log.Printf("lotus-serve: observability on http://%s (/healthz /metrics /trace)", h)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("lotus-serve: draining (budget %v)", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("lotus-serve: drain budget exhausted, sessions aborted: %v", err)
		os.Exit(1)
	}
}
