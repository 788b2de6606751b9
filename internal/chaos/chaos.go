// Package chaos is the deterministic fault-injection sweep runner: it
// executes a fault-class × workload matrix through the loader substrate
// (under the virtual clock) and the serving stack (over loopback TCP),
// asserting the failure-path invariants after every run:
//
//   - no deadlocked procs (the sim clock's deadlock panic is a failure);
//   - no leaked goroutines once a run tears down;
//   - the trace log is still parseable and passes trace.Validate, modulo
//     the op-without-batch issues a failed batch legitimately produces;
//   - Iterator.Skipped matches the injector's up-front failure prediction
//     exactly under SkipBatch;
//   - a served session either completes byte-identically to a local
//     DataLoader run or fails with a clean Error frame;
//   - a clustered epoch (three loopback nodes) delivers its plan exactly
//     once and byte-identically whatever the membership does mid-epoch:
//     node killed, node slowed, heartbeat flapping (cluster.go);
//   - straggler mitigation never changes bytes: hedged fetches around a
//     degraded node deliver exactly once with every duplicate attributed to
//     a hedge loser (straggler.go).
//
// Every decision the sweep injects is a pure function of the seed, so a
// failing cell reproduces by rerunning with the same seed.
package chaos

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"lotus/internal/clock"
	"lotus/internal/core/trace"
	"lotus/internal/faultinject"
	"lotus/internal/native"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// Options configures a sweep.
type Options struct {
	// Seed drives every injected decision (default 1).
	Seed int64
	// Short trims the matrix to one workload per fault class — the CI
	// configuration. Every fault class still gets at least one injected run.
	Short bool
	// Logf receives per-cell progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Result is one sweep cell's outcome.
type Result struct {
	// Class names the fault class ("read-error", "wire-drop", ...).
	Class string
	// Workload names the pipeline the faults were injected into.
	Workload string
	// Injected counts the faults that actually fired.
	Injected int64
	// Failures lists every violated invariant (empty = cell passed).
	Failures []string
	// Notes carries non-fatal observations (batches delivered, retries...).
	Notes []string
}

// OK reports whether every invariant held.
func (r Result) OK() bool { return len(r.Failures) == 0 }

func (r Result) String() string {
	status := "ok"
	if !r.OK() {
		status = "FAIL: " + strings.Join(r.Failures, "; ")
	}
	s := fmt.Sprintf("%-16s %-4s injected=%-3d %s", r.Class, r.Workload, r.Injected, status)
	if len(r.Notes) > 0 {
		s += " (" + strings.Join(r.Notes, ", ") + ")"
	}
	return s
}

// Sweep runs the full fault-class × workload matrix and returns one Result
// per cell.
func Sweep(opts Options) []Result {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	kinds := []workloads.Kind{workloads.IC, workloads.IS, workloads.OD}
	if opts.Short {
		kinds = []workloads.Kind{workloads.IC}
	}

	// Cells run one after another and shut down every server they start, so
	// after each one no frame buffer may be out that was not before the
	// sweep: frame memory is freed by Release alone, a leak is for good.
	var leaks failures
	framesBack := testutil.CheckFrames(&leaks, serve.FramesInUse)
	var out []Result
	run := func(r Result) {
		framesBack()
		r.Failures, leaks = append(r.Failures, leaks...), nil
		logf("chaos: %s", r)
		out = append(out, r)
	}

	// Loader-substrate classes under the virtual clock.
	for _, kind := range kinds {
		run(pipelineCell("baseline", kind, opts.Seed, faultinject.Spec{}))
		run(pipelineCell("read-error", kind, opts.Seed, faultinject.Spec{Seed: opts.Seed, ReadErrorNth: 6}))
		run(pipelineCell("read-stall", kind, opts.Seed, faultinject.Spec{Seed: opts.Seed, ReadStallNth: 4, ReadStall: 20 * time.Millisecond}))
		run(pipelineCell("worker-panic", kind, opts.Seed, faultinject.Spec{Seed: opts.Seed, PanicNth: 6}))
		run(pipelineCell("worker-stall", kind, opts.Seed, faultinject.Spec{Seed: opts.Seed, StallNth: 3, WorkerStall: 50 * time.Millisecond}))
	}

	// Serving-stack classes over loopback TCP. Sharing one workload keeps
	// the short sweep fast; the classes exercise independent seams.
	run(serveWireCell("wire-drop", opts.Seed, faultinject.Spec{DropFrame: 3}, serverOpts{}))
	run(serveWireCell("wire-truncate", opts.Seed, faultinject.Spec{TruncateFrame: 5}, serverOpts{}))
	run(serveWireCell("wire-corrupt", opts.Seed, faultinject.Spec{CorruptFrame: 4}, serverOpts{}))
	run(servePanicCell(opts.Seed))
	run(serveDisconnectCell(opts.Seed))

	// Wire classes re-run with the materialized-batch cache enabled: the
	// retried fetch is served from cache and must still be byte-identical,
	// proving faults land per-connection, never in the shared cache bytes.
	run(serveWireCell("wire-drop-cached", opts.Seed, faultinject.Spec{DropFrame: 3}, serverOpts{batchCacheBytes: chaosCacheBytes}))
	run(serveWireCell("wire-corrupt-cached", opts.Seed, faultinject.Spec{CorruptFrame: 4}, serverOpts{batchCacheBytes: chaosCacheBytes}))

	// Split-point sample cache cells: real-mode augmented pipeline, so
	// byte-identity is over actual pixels. Corruption must never reach the
	// materialized prefixes; eviction churn must never change served bytes.
	run(serveWireCell("wire-corrupt-scache", opts.Seed, faultinject.Spec{CorruptFrame: 4}, serverOpts{sampleCacheBytes: chaosCacheBytes}))
	run(sampleCacheChurnCell(opts.Seed))

	// Multi-tenant QoS adversary: a rate-capped tenant floods from three
	// sessions; the cap must hold tenant-wide, the polite tenant must run
	// uncapped, and every session still completes byte-identically.
	run(tenantGreedyCell(opts.Seed))

	// Persistent disk tier crash cells (disk.go): SIGKILL-equivalent
	// restarts rebuild the index and serve warm bytes; torn manifests and
	// rotten records degrade to clean recomputes, never corrupt bytes.
	run(diskRewarmCell(opts.Seed))
	run(diskTornManifestCell(opts.Seed))
	run(diskCorruptSegmentCell(opts.Seed))

	// Straggler mitigation (straggler.go): hedged fetches around a degraded
	// cluster node.
	run(clusterHedgeSlowNodeCell(opts.Seed))

	// Cluster failover plane over three loopback nodes (cluster.go).
	run(clusterNodeKillCell(opts.Seed, 0))
	run(clusterNodeKillCell(opts.Seed, chaosCacheBytes))
	run(clusterNodeKillWarmSampleCacheCell(opts.Seed))
	run(clusterNodeSlowCell(opts.Seed))
	run(clusterHeartbeatFlapCell(opts.Seed))
	run(clusterNodeKillRewarmCell(opts.Seed))
	// Closed-loop balancer convergence: a slowed-but-alive node sheds ring
	// weight until throughput converges, with byte-identity every epoch.
	run(clusterAutotuneSlowNodeCell(opts.Seed))
	return out
}

// failures collects what a testutil check reports outside a test.
type failures []string

func (f *failures) Helper() {}

func (f *failures) Errorf(format string, args ...any) {
	*f = append(*f, fmt.Sprintf(format, args...))
}

// chaosCacheBytes is the batch-cache budget for the cache-enabled cells:
// large enough that nothing is evicted, so every isolation failure is a
// correctness bug rather than an eviction artifact.
const chaosCacheBytes = 64 << 20

// chaosSpec returns a small instance of one workload, sized so a sweep cell
// runs in well under a second.
func chaosSpec(kind workloads.Kind, seed int64) workloads.Spec {
	switch kind {
	case workloads.IC:
		spec := workloads.ICSpec(64, seed)
		spec.BatchSize = 8
		spec.NumWorkers = 2
		return spec
	case workloads.IS:
		spec := workloads.ISSpec(16, seed)
		return spec
	default:
		spec := workloads.ODSpec(16, seed)
		return spec
	}
}

// pipelineCell runs one fault class through one workload's DataLoader under
// SkipBatch and checks the loader invariants.
func pipelineCell(class string, kind workloads.Kind, seed int64, fspec faultinject.Spec) Result {
	return pipelineCellWithSpec(class, chaosSpec(kind, seed), fspec)
}

// pipelineCellWithSpec is pipelineCell over an explicit workload spec.
func pipelineCellWithSpec(class string, spec workloads.Spec, fspec faultinject.Spec) Result {
	res := Result{Class: class, Workload: string(spec.Kind)}
	inj := faultinject.New(fspec)

	plan := pipeline.BuildBatchPlan(spec.NumSamples, spec.BatchSize, spec.Shuffle, false, spec.Seed)
	predicted := inj.FailingBatches(plan)

	var buf bytes.Buffer
	tracer := trace.NewTracer(&buf)
	hooks := tracer.Hooks()

	baseline := testutil.Baseline()
	var skipped []int
	var delivered int
	var runErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("deadlock or panic: %v", r))
			}
		}()
		sim := clock.NewSim()
		ds := spec.Dataset(hooks)
		dl := pipeline.NewDataLoader(sim, ds, pipeline.Config{
			BatchSize:  spec.BatchSize,
			NumWorkers: spec.NumWorkers,
			Seed:       spec.Seed,
			BatchPlan:  plan,
			PinMemory:  spec.PinMemory,
			OnError:    pipeline.SkipBatch,
			Hooks:      hooks,
			Mode:       pipeline.Simulated,
			Engine:     native.NewEngine(spec.Arch, native.DefaultCPU()),
			Faults:     inj,
		})
		sim.Run("chaos-main", func(p clock.Proc) {
			it := dl.Start(p)
			for {
				if _, ok := it.Next(p); !ok {
					skipped = it.Skipped()
					runErr = it.Err()
					return
				}
				delivered++
			}
		})
	}()
	if runErr != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("SkipBatch run surfaced Err: %v", runErr))
	}
	if err := testutil.WaitNoLeaks(baseline, 5*time.Second); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}

	// Exact skip accounting: Skipped must equal the injector's prediction.
	sort.Ints(skipped)
	if !equalInts(skipped, predicted) {
		res.Failures = append(res.Failures, fmt.Sprintf("skipped %v, predicted %v", skipped, predicted))
	}
	if delivered != len(plan)-len(predicted) {
		res.Failures = append(res.Failures, fmt.Sprintf("delivered %d batches, want %d", delivered, len(plan)-len(predicted)))
	}

	// The trace must still parse, and every surviving Validate issue must be
	// one a failed batch legitimately produces (its ops were logged before
	// the panic, so they reference a batch with no preprocessing record).
	tracer.Flush()
	records, err := trace.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("trace unparseable: %v", err))
	} else {
		failed := map[int]bool{}
		for _, id := range predicted {
			failed[id] = true
		}
		for _, issue := range trace.Validate(records) {
			if allowedIssue(issue, failed) {
				continue
			}
			res.Failures = append(res.Failures, "trace invariant: "+issue.String())
		}
	}

	counts := inj.Counts()
	res.Injected = counts.Total()
	res.Notes = append(res.Notes, fmt.Sprintf("batches=%d skipped=%d records=%d", delivered, len(skipped), len(records)))
	if class != "baseline" && res.Injected == 0 {
		res.Failures = append(res.Failures, "fault class injected nothing")
	}
	return res
}

// allowedIssue reports whether a Validate issue is the expected artifact of
// an injected batch failure rather than an instrumentation bug.
func allowedIssue(issue trace.Issue, failed map[int]bool) bool {
	if issue.Code != "op-without-batch" || len(failed) == 0 {
		return false
	}
	var op string
	var id int
	if _, err := fmt.Sscanf(issue.Detail, "op %s references batch %d", &op, &id); err != nil {
		return false
	}
	return failed[id]
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serveSpec is the serving-stack sweep workload: small enough that one epoch
// is a handful of frames.
func serveSpec(seed int64) workloads.Spec {
	spec := workloads.ICSpec(64, seed)
	spec.BatchSize = 8 // 8 batches per epoch
	spec.NumWorkers = 2
	return spec
}

// chaosMaterializeDim caps real-mode synthesis so augmented cells stay fast.
const chaosMaterializeDim = 48

// groundTruthFrames encodes every batch of one epoch exactly as the server
// would, from a local simulated DataLoader run over the full plan.
func groundTruthFrames(spec workloads.Spec, epoch int) ([][]byte, error) {
	return groundTruthFramesMode(spec, epoch, pipeline.Simulated)
}

// groundTruthFramesMode is groundTruthFrames in an explicit pipeline mode; in
// RealData the frames carry actual pixel payloads, so byte-identity against
// them proves cached or rerouted bytes are the true pipeline output.
func groundTruthFramesMode(spec workloads.Spec, epoch int, mode pipeline.Mode) ([][]byte, error) {
	plan := serve.BuildEpochPlan(spec.NumSamples, spec.BatchSize, spec.Shuffle, false, spec.Seed, epoch)
	batchPlan := make([][]int, len(plan))
	for i, pb := range plan {
		batchPlan[i] = pb.Indices
	}
	out := make([][]byte, len(plan))
	var runErr error
	sim := clock.NewSim()
	sim.Run("chaos-local", func(p clock.Proc) {
		dl := pipeline.NewDataLoader(sim, spec.Dataset(nil), pipeline.Config{
			BatchSize:      spec.BatchSize,
			NumWorkers:     spec.NumWorkers,
			PinMemory:      spec.PinMemory,
			Seed:           spec.Seed,
			Epoch:          epoch,
			BatchPlan:      batchPlan,
			Mode:           mode,
			MaterializeDim: chaosMaterializeDim,
			Engine:         native.NewEngine(spec.Arch, native.DefaultCPU()),
		})
		it := dl.Start(p)
		for i := 0; ; i++ {
			b, ok := it.Next(p)
			if !ok {
				runErr = it.Err()
				return
			}
			wb := &serve.Batch{Epoch: epoch, GlobalID: i, Indices: b.Indices, Labels: b.Labels}
			if b.Data != nil {
				wb.Dtype = b.Data.Dtype
				wb.Shape = b.Data.Shape
				wb.U8 = b.Data.U8
				wb.F32 = b.Data.F32
			}
			out[i] = serve.EncodeBatch(wb)
		}
	})
	return out, runErr
}

// serverOpts selects the optional serving-stack features a cell runs with.
// The zero value is the plain configuration: simulated mode, no caches.
type serverOpts struct {
	batchCacheBytes  int64
	sampleCacheBytes int64
	diskDir          string        // non-empty enables the persistent disk tier
	mode             pipeline.Mode // zero value = Simulated
	emulate          bool          // Simulated pipeline paced on the wall clock
	qos              bool          // per-tenant fair scheduling
	tenants          map[string]serve.TenantLimit
}

// startServer boots a loopback server with the given injector; cacheBytes > 0
// enables the materialized-batch cache.
func startServer(spec workloads.Spec, inj *faultinject.Injector, cacheBytes int64) (*serve.Server, error) {
	return startServerOpts(spec, inj, serverOpts{batchCacheBytes: cacheBytes})
}

// startServerOpts is startServer with the full feature selection.
func startServerOpts(spec workloads.Spec, inj *faultinject.Injector, o serverOpts) (*serve.Server, error) {
	srv := serve.New(serve.Config{Spec: spec, Mode: o.mode, EmulateTime: o.emulate,
		MaterializeDim: chaosMaterializeDim,
		Prefetch:       2, Faults: inj,
		BatchCacheBytes: o.batchCacheBytes, SampleCacheBytes: o.sampleCacheBytes,
		DiskCacheDir: o.diskDir, QoS: o.qos, Tenants: o.tenants})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		return nil, err
	}
	return srv, nil
}

// augmentedServeSpec is the serving-stack sweep workload for sample-cache
// cells: the ICA pipeline, whose two-op deterministic prefix is what the
// split-point cache materializes.
func augmentedServeSpec(seed int64) workloads.Spec {
	spec := workloads.ICASpec(32, seed)
	spec.BatchSize = 8 // 4 batches per epoch
	spec.NumWorkers = 2
	return spec
}

// serveWireCell injects one wire fault (drop, truncate, or corrupt) into a
// served epoch stream and asserts the client's retries mask it: the session
// must still complete byte-identically against the local ground truth. With
// o.batchCacheBytes > 0 the materialized-batch cache is enabled and the cell
// proves the PR 5 isolation invariant: wire faults land on the connection,
// never in the shared cache bytes — the retried fetch is served (partly) from
// cache and is still byte-identical to ground truth. With o.sampleCacheBytes
// > 0 the cell runs the augmented workload in real mode and proves the same
// isolation one layer down: corrupted frames never pollute the materialized
// prefix pixels the split-point sample cache re-serves.
func serveWireCell(class string, seed int64, fspec faultinject.Spec, o serverOpts) Result {
	spec := serveSpec(seed)
	if o.sampleCacheBytes > 0 {
		spec = augmentedServeSpec(seed)
		o.mode = pipeline.RealData
	}
	res := Result{Class: class, Workload: string(spec.Kind)}
	fspec.Seed = seed
	inj := faultinject.New(fspec)
	const epochs = 2

	expected := make([][][]byte, epochs)
	for e := 0; e < epochs; e++ {
		frames, err := groundTruthFramesMode(spec, e, o.mode)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("ground truth epoch %d: %v", e, err))
			return res
		}
		expected[e] = frames
	}

	baseline := testutil.Baseline()
	srv, err := startServerOpts(spec, inj, o)
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
		return res
	}

	got := make([][][]byte, epochs)
	c := serve.NewClient(serve.ClientConfig{
		Addr: srv.Addr(), Name: "chaos-" + class,
		// A retried epoch is re-fetched whole: drop the failed attempt's
		// partial (possibly corrupted) frames before the re-request.
		OnRetry: func(epoch, attempt int, err error) { got[epoch] = nil },
	})
	stats, runErr := c.Run(epochs, func(b *serve.Batch, payload []byte) {
		if b.Epoch >= 0 && b.Epoch < epochs {
			got[b.Epoch] = append(got[b.Epoch], append([]byte(nil), payload...))
		}
	})
	cacheStats, cacheOn := srv.CacheStats()
	scacheStats, scacheOn := srv.SampleCacheStats()
	c.Close()
	srv.Close()

	if o.batchCacheBytes > 0 {
		if !cacheOn {
			res.Failures = append(res.Failures, "cache-enabled cell reports cache disabled")
		} else if cacheStats.Hits == 0 {
			// The failed attempt fulfilled frames before the fault cut it; the
			// retry must reuse them — a zero hit count means the retry
			// recomputed everything and the cache isolation claim is untested.
			res.Failures = append(res.Failures, "retried fetch never hit the cache")
		} else {
			res.Notes = append(res.Notes, fmt.Sprintf("cache hits=%d misses=%d", cacheStats.Hits, cacheStats.Misses))
		}
	}
	if o.sampleCacheBytes > 0 {
		if !scacheOn {
			res.Failures = append(res.Failures, "sample-cache cell reports the cache disabled")
		} else if scacheStats.Hits == 0 {
			// Epoch 1 (and the retried fetch) must re-serve epoch 0's
			// materialized prefixes, or the pollution claim went untested.
			res.Failures = append(res.Failures, "no request ever hit the sample cache")
		} else {
			res.Notes = append(res.Notes, fmt.Sprintf("sample-cache hits=%d misses=%d", scacheStats.Hits, scacheStats.Misses))
		}
	}

	if runErr != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("client did not mask the wire fault: %v", runErr))
	}
	for e := 0; e < epochs && runErr == nil; e++ {
		if len(got[e]) != len(expected[e]) {
			res.Failures = append(res.Failures, fmt.Sprintf("epoch %d: %d frames, want %d", e, len(got[e]), len(expected[e])))
			continue
		}
		for i := range got[e] {
			if !bytes.Equal(got[e][i], expected[e][i]) {
				res.Failures = append(res.Failures, fmt.Sprintf("epoch %d frame %d not byte-identical after retry", e, i))
				break
			}
		}
	}
	if stats != nil && stats.Retries == 0 {
		res.Failures = append(res.Failures, "wire fault fired but the client never retried")
	}
	if err := testutil.WaitNoLeaks(baseline, 5*time.Second); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	res.Injected = inj.Counts().WireFaults
	if res.Injected == 0 {
		res.Failures = append(res.Failures, "fault class injected nothing")
	}
	if stats != nil {
		res.Notes = append(res.Notes, fmt.Sprintf("retries=%d batches=%d", stats.Retries, stats.Batches))
	}
	return res
}

// tenantGreedyCell is the multi-tenancy adversary cell: a rate-capped greedy
// tenant floods the server from three concurrent sessions while a polite
// tenant streams alongside. The QoS layer must hold the cap across all the
// greedy tenant's sessions (its /metrics row shows throttled time), must
// never rate-limit the polite tenant, and every session — greedy included —
// must still complete byte-identically to local ground truth: QoS is
// schedule, never content.
func tenantGreedyCell(seed int64) Result {
	spec := serveSpec(seed)
	res := Result{Class: "tenant-greedy", Workload: string(spec.Kind)}
	const (
		epochs         = 2
		greedySessions = 3
	)

	expected := make([][][]byte, epochs)
	for e := 0; e < epochs; e++ {
		frames, err := groundTruthFramesMode(spec, e, pipeline.Simulated)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("ground truth epoch %d: %v", e, err))
			return res
		}
		expected[e] = frames
	}

	baseline := testutil.Baseline()
	srv, err := startServerOpts(spec, nil, serverOpts{
		batchCacheBytes: chaosCacheBytes,
		qos:             true,
		tenants: map[string]serve.TenantLimit{
			"greedy": {BatchesPerSec: 100, BurstBatches: 4},
		},
	})
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
		return res
	}

	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	runSession := func(name, tenant string) {
		got := make([][][]byte, epochs)
		c := serve.NewClient(serve.ClientConfig{Addr: srv.Addr(), Name: name, Tenant: tenant,
			OnRetry: func(epoch, attempt int, err error) { got[epoch] = nil }})
		defer c.Close()
		if _, err := c.Run(epochs, func(b *serve.Batch, payload []byte) {
			if b.Epoch >= 0 && b.Epoch < epochs {
				got[b.Epoch] = append(got[b.Epoch], append([]byte(nil), payload...))
			}
		}); err != nil {
			fail("%s: session failed under QoS: %v", name, err)
			return
		}
		for e := 0; e < epochs; e++ {
			if len(got[e]) != len(expected[e]) {
				fail("%s: epoch %d: %d frames, want %d", name, e, len(got[e]), len(expected[e]))
				return
			}
			for i := range got[e] {
				if !bytes.Equal(got[e][i], expected[e][i]) {
					fail("%s: epoch %d frame %d not byte-identical under QoS", name, e, i)
					return
				}
			}
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < greedySessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runSession(fmt.Sprintf("greedy-%d", i), "greedy")
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		runSession("polite-0", "polite")
	}()
	wg.Wait()

	snap := srv.Snapshot(time.Now())
	var greedyMs, politeMs float64
	var seen int
	for _, row := range snap.Tenants {
		switch row.Tenant {
		case "greedy":
			greedyMs = row.ThrottledMs
			seen++
		case "polite":
			politeMs = row.ThrottledMs
			seen++
		}
	}
	if seen != 2 {
		res.Failures = append(res.Failures, fmt.Sprintf("tenant rows on /metrics: %d, want greedy and polite", seen))
	}
	if greedyMs <= 0 {
		res.Failures = append(res.Failures, "greedy tenant was never throttled: the cap did not hold across its sessions")
	}
	if politeMs != 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("polite tenant throttled %.1fms by the greedy tenant's cap", politeMs))
	}
	srv.Close()

	if err := testutil.WaitNoLeaks(baseline, 5*time.Second); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	res.Injected = greedySessions
	res.Notes = append(res.Notes, fmt.Sprintf("greedy throttled=%.0fms polite=%.0fms", greedyMs, politeMs))
	return res
}

// sampleCacheChurnCell serves the augmented workload through a sample cache
// whose budget is smaller than a single materialized prefix: every fulfilled
// entry is evicted on insert, no request ever hits, and refcounted entries
// are torn down under maximal churn. The served pixels must stay identical to
// a cache-less local run — eviction is a performance event, never a
// correctness one — and nothing may leak or deadlock on the eviction path.
func sampleCacheChurnCell(seed int64) Result {
	res := Result{Class: "scache-churn", Workload: "ICA"}
	spec := augmentedServeSpec(seed)
	const epochs = 2

	expected := make([][][]byte, epochs)
	for e := 0; e < epochs; e++ {
		frames, err := groundTruthFramesMode(spec, e, pipeline.RealData)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("ground truth epoch %d: %v", e, err))
			return res
		}
		expected[e] = frames
	}

	baseline := testutil.Baseline()
	// 1 KiB holds no 48×48 RGB prefix, so the cache runs at full churn.
	srv, err := startServerOpts(spec, nil, serverOpts{sampleCacheBytes: 1 << 10, mode: pipeline.RealData})
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
		return res
	}

	got := make([][][]byte, epochs)
	c := serve.NewClient(serve.ClientConfig{Addr: srv.Addr(), Name: "chaos-scache-churn"})
	_, runErr := c.Run(epochs, func(b *serve.Batch, payload []byte) {
		if b.Epoch >= 0 && b.Epoch < epochs {
			got[b.Epoch] = append(got[b.Epoch], append([]byte(nil), payload...))
		}
	})
	stats, on := srv.SampleCacheStats()
	c.Close()
	srv.Close()

	if runErr != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("session failed under eviction churn: %v", runErr))
	}
	for e := 0; e < epochs && runErr == nil; e++ {
		if len(got[e]) != len(expected[e]) {
			res.Failures = append(res.Failures, fmt.Sprintf("epoch %d: %d frames, want %d", e, len(got[e]), len(expected[e])))
			continue
		}
		for i := range got[e] {
			if !bytes.Equal(got[e][i], expected[e][i]) {
				res.Failures = append(res.Failures, fmt.Sprintf("epoch %d frame %d bytes changed under eviction churn", e, i))
				break
			}
		}
	}
	if !on {
		res.Failures = append(res.Failures, "sample cache reports disabled")
	} else {
		if stats.Hits != 0 {
			res.Failures = append(res.Failures, fmt.Sprintf("%d hits against a sub-entry budget", stats.Hits))
		}
		if stats.Evicted != stats.Misses || stats.Misses < int64(spec.NumSamples) {
			res.Failures = append(res.Failures, fmt.Sprintf("evictions %d, misses %d: churn accounting broken", stats.Evicted, stats.Misses))
		}
		res.Notes = append(res.Notes, fmt.Sprintf("misses=%d evicted=%d", stats.Misses, stats.Evicted))
	}
	if err := testutil.WaitNoLeaks(baseline, 5*time.Second); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	res.Injected = stats.Evicted // the eviction pressure is the injected fault
	if res.Injected == 0 {
		res.Failures = append(res.Failures, "fault class injected nothing")
	}
	return res
}

// servePanicCell injects worker panics into the served pipeline and asserts
// the failure surfaces as a clean Error frame (a fatal ServerError on the
// client), not a wedged or crashed server.
func servePanicCell(seed int64) Result {
	res := Result{Class: "server-panic", Workload: "IC"}
	inj := faultinject.New(faultinject.Spec{Seed: seed, PanicNth: 6})
	spec := serveSpec(seed)

	baseline := testutil.Baseline()
	srv, err := startServer(spec, inj, 0)
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
		return res
	}

	c := serve.NewClient(serve.ClientConfig{Addr: srv.Addr(), Name: "chaos-panic"})
	_, runErr := c.Run(1, nil)
	c.Close()
	if runErr == nil {
		res.Failures = append(res.Failures, "epoch with injected panics completed; expected a clean Error frame")
	} else if !strings.Contains(runErr.Error(), "server error") {
		res.Failures = append(res.Failures, fmt.Sprintf("failure was not a clean Error frame: %v", runErr))
	}

	// The server must survive the failed session: a fresh handshake works.
	c2 := serve.NewClient(serve.ClientConfig{Addr: srv.Addr(), Name: "chaos-panic-2"})
	if err := c2.Connect(); err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("server dead after panic session: %v", err))
	}
	c2.Close()
	srv.Close()

	if err := testutil.WaitNoLeaks(baseline, 5*time.Second); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	// How many more batches reach their panic before the failed epoch is torn
	// down depends on how far the session's window had run ahead on the shared
	// pool — schedule, not seed — so the cell counts the one thing that is
	// fixed: the epoch the panics failed.
	panics := inj.Counts().Panics
	res.Notes = append(res.Notes, fmt.Sprintf("panics=%d", panics))
	if panics == 0 {
		res.Failures = append(res.Failures, "fault class injected nothing")
	} else {
		res.Injected = 1
	}
	return res
}

// serveDisconnectCell drops the client connection mid-stream and asserts the
// server aborts the epoch cleanly: the next session completes byte-identically
// and no producer goroutine is stranded.
func serveDisconnectCell(seed int64) Result {
	res := Result{Class: "client-disconnect", Workload: "IC"}
	spec := serveSpec(seed)

	expected, err := groundTruthFrames(spec, 0)
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("ground truth: %v", err))
		return res
	}

	baseline := testutil.Baseline()
	srv, err := startServer(spec, nil, 0)
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
		return res
	}

	// Rude client: handshake, request an epoch, read two frames, vanish.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
		srv.Close()
		return res
	}
	serve.WriteFrame(conn, serve.EncodeHello(serve.Hello{Version: serve.ProtocolVersion, World: 1, Name: "chaos-rude"}))
	if _, err := serve.ReadFrame(conn, 0); err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("handshake: %v", err))
	}
	serve.WriteFrame(conn, serve.EncodeEpochReq(serve.EpochReq{Epoch: 0}))
	for i := 0; i < 2; i++ {
		if _, err := serve.ReadFrame(conn, 0); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("frame %d before disconnect: %v", i, err))
			break
		}
	}
	conn.Close()
	res.Injected = 1 // the disconnect itself is the fault

	// A clean session right after must stream the identical epoch.
	var got [][]byte
	c := serve.NewClient(serve.ClientConfig{Addr: srv.Addr(), Name: "chaos-clean"})
	_, runErr := c.Run(1, func(b *serve.Batch, payload []byte) {
		got = append(got, append([]byte(nil), payload...))
	})
	c.Close()
	srv.Close()
	if runErr != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("clean session after disconnect: %v", runErr))
	} else if len(got) != len(expected) {
		res.Failures = append(res.Failures, fmt.Sprintf("clean session got %d frames, want %d", len(got), len(expected)))
	} else {
		for i := range got {
			if !bytes.Equal(got[i], expected[i]) {
				res.Failures = append(res.Failures, fmt.Sprintf("frame %d not byte-identical after disconnect recovery", i))
				break
			}
		}
	}
	if err := testutil.WaitNoLeaks(baseline, 5*time.Second); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	return res
}
