package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lotus/internal/pipeline"
	"lotus/internal/rng"
	"lotus/internal/serve"
	"lotus/internal/workloads"
)

// Geometry shared by every workload (ISSUE 11): RealData, MaterializeDim 256,
// batch 32, two ranks, two pipeline workers, server prefetch 4.
const (
	fullSamples    = 512
	smokeSamples   = 64
	batchSize      = 32
	world          = 2
	numWorkers     = 2
	servePrefetch  = 4
	materializeDim = 256
	cacheGiB       = 1 << 30
	// spillBudgetAtFull is ic_spill's memory budget at fullSamples: 4 of an
	// epoch's 16 frames. Smaller sample counts scale it, so the budget stays
	// a quarter of one epoch.
	spillBudgetAtFull = 80 << 20
)

// workload is one served traffic mix. warm lists the epochs fetched (by both
// ranks) before measuring, in order; a negative entry flushes the disk tier.
// epochAt maps measured iteration i to the epoch both ranks fetch.
type workload struct {
	Name    string
	Why     string
	kind    workloads.Kind
	config  func(cfg *serve.Config, n int, diskDir string)
	warm    []int
	epochAt func(i int) int
}

const flushDisk = -1

var allWorkloads = []workload{
	{
		Name:    "ic_cold",
		Why:     "IC, every cache off, a fresh epoch each time: imaging and pipeline do the work, so kernel and loader changes show here and cache changes must not",
		kind:    workloads.IC,
		config:  func(*serve.Config, int, string) {},
		warm:    []int{0},
		epochAt: func(i int) int { return 1 + i },
	},
	{
		Name: "ic_hot",
		Why:  "same spec re-fetching epoch 0 from a 1 GiB batch cache: only cache lookup, frame write, checksums and client decode run, so wire changes show and kernel changes must not",
		kind: workloads.IC,
		config: func(cfg *serve.Config, _ int, _ string) {
			cfg.BatchCacheBytes = cacheGiB
		},
		warm:    []int{0, 0},
		epochAt: func(int) int { return 0 },
	},
	{
		Name: "ica_warm",
		Why:  "augmented ICA on a warm 1 GiB sample cache, no batch cache: decode and resize hit, the random suffix, normalize and collate run; many small cache entries, not few large",
		kind: workloads.ICA,
		config: func(cfg *serve.Config, _ int, _ string) {
			cfg.SampleCacheBytes = cacheGiB
		},
		warm:    []int{0},
		epochAt: func(i int) int { return 1 + i },
	},
	{
		Name: "ic_spill",
		Why:  "IC with memory for a quarter of an epoch over a disk tier, ranks alternating two epochs: every fetch is a memory miss, disk read, re-verify and eviction, the reverse of ic_hot",
		kind: workloads.IC,
		config: func(cfg *serve.Config, n int, diskDir string) {
			cfg.BatchCacheBytes = int64(spillBudgetAtFull) * int64(n) / fullSamples
			cfg.DiskCacheDir = diskDir
		},
		warm:    []int{0, 1, flushDisk},
		epochAt: func(i int) int { return i % 2 },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) spec(n int, seed int64) workloads.Spec {
	var spec workloads.Spec
	if w.kind == workloads.ICA {
		spec = workloads.ICASpec(n, seed)
	} else {
		spec = workloads.ICSpec(n, seed)
	}
	spec.BatchSize = batchSize
	spec.NumWorkers = numWorkers
	return spec
}

// runOpts sizes one workload run.
type runOpts struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Samples   int     `json:"samples"`
	Seconds   float64 `json:"seconds"`    // measured phase runs at least this long
	MinEpochs int     `json:"min_epochs"` // and at least this many epochs
	Spans     bool    `json:"spans"`      // record harness spans (traced run)
	SetupOnly bool    `json:"setup_only"` // stop after set-up; report setup_s only
	OutDir    string  `json:"out_dir"`    // scratch space for the disk tier and span files
	// flipByte is the negative test's seam: the verifier sees every payload
	// with one byte flipped, as a corrupting wire or cache would deliver it.
	flipByte bool
}

// epochRecord is one measured epoch: both ranks' fetches of one epoch number.
type epochRecord struct {
	Epoch        int            `json:"epoch"`
	WallS        float64        `json:"wall_s"`
	CPUS         float64        `json:"cpu_s"`     // user + system
	CPUSysS      float64        `json:"cpu_sys_s"` // the system part: page faults, socket copies
	Samples      int            `json:"samples"`
	Bytes        int64          `json:"bytes"`
	FirstBatchMs [world]float64 `json:"first_batch_ms"`
	Failed       int            `json:"failed_fetches"`
}

// workloadResult is what one workload process reports.
type workloadResult struct {
	Opts         runOpts       `json:"opts"`
	SetupS       float64       `json:"setup_s"`
	MeasuredS    float64       `json:"measured_s"`
	Epochs       []epochRecord `json:"epochs"`
	Attempted    int           `json:"attempted"`
	Failed       int           `json:"failed"`
	Failures     []string      `json:"failures,omitempty"`
	Verified     int           `json:"verified_batches"`
	SamplesPerS  float64       `json:"samples_per_s"`
	FirstBatchMs float64       `json:"first_batch_ms"`
	CPUMsPerSamp float64       `json:"cpu_ms_per_sample"`
	PeakRSSMB    float64       `json:"peak_rss_MB"`
	FailedFrac   float64       `json:"failed_frac"`
	// Layers are the per-layer metrics that belong to this workload: cache
	// and disk counters, server-side waits, client-side batch gaps. GapTail
	// is client.batch_gap_tail_ms with its percentile and sample count.
	Layers  map[string]float64 `json:"layers"`
	GapTail tail               `json:"client_batch_gap_tail"`
	Note    string             `json:"note,omitempty"`
}

// fetchResult is one rank's fetch of one epoch.
type fetchResult struct {
	err       error
	first     time.Duration
	gaps      []time.Duration
	bytes     int64
	samples   int
	verifyDur time.Duration
}

// runner is one loopback server with its two client ranks and the verifier
// that watches what they receive.
type runner struct {
	spec    workloads.Spec
	cfg     serve.Config
	srv     *serve.Server
	clients [world]*serve.Client
	ver     *verifier
	rec     *recorder

	seq       int // epoch fetches issued so far
	attempted int
	failures  []string
	failedBy  map[fetchKey]bool // fetches counted failed
}

// fetchKey names one rank's fetch: seq counts the runner's epoch fetches.
type fetchKey struct{ seq, rank int }

// serveConfig is the configuration every benchmark server starts from.
func serveConfig(spec workloads.Spec) serve.Config {
	return serve.Config{Spec: spec, Mode: pipeline.RealData, Prefetch: servePrefetch,
		MaterializeDim: materializeDim}
}

func newRunner(cfg serve.Config, ver *verifier, rec *recorder) *runner {
	return &runner{spec: cfg.Spec, cfg: cfg, ver: ver, rec: rec, failedBy: make(map[fetchKey]bool)}
}

// runWorkload builds the server, warms it, measures, verifies against the
// local ground truth, and tears everything down. procStart is when the
// workload's process started; set-up time is counted from it.
func runWorkload(o runOpts, procStart time.Time) (res *workloadResult, err error) {
	w, ok := findWorkload(o.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	spec := w.spec(o.Samples, o.Seed)
	diskDir := ""
	if w.Name == "ic_spill" {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return nil, err
		}
		if diskDir, err = os.MkdirTemp(o.OutDir, "disk-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(diskDir)
	}
	cfg := serveConfig(spec)
	w.config(&cfg, o.Samples, diskDir)
	r := newRunner(cfg, newVerifier(spec, o.flipByte), newRecorder(o.Spans))
	defer func() {
		if cerr := r.close(); err == nil {
			err = cerr
		}
	}()
	if err := r.start(); err != nil {
		return nil, err
	}
	for _, e := range w.warm {
		if e == flushDisk {
			if err := r.srv.FlushDiskCache(); err != nil {
				return nil, fmt.Errorf("flush disk tier: %w", err)
			}
			continue
		}
		r.fetchEpoch(e)
	}
	res = &workloadResult{Opts: o, SetupS: time.Since(procStart).Seconds()}
	if w.Name == "ic_spill" {
		res.Note = "disk-tier reads come from the page cache on this host (writes are fsynced to its virtual disk): this measures the code path, not a device"
	}
	if o.SetupOnly {
		return res, nil
	}

	var gaps []float64
	var verifyBytes int64
	var verifyDur time.Duration
	firstMeasured := r.seq
	t0 := time.Now()
	for i := 0; i < o.MinEpochs || time.Since(t0).Seconds() < o.Seconds; i++ {
		er, frs := r.fetchEpoch(w.epochAt(i))
		res.Epochs = append(res.Epochs, er)
		for _, fr := range frs {
			for _, g := range fr.gaps {
				gaps = append(gaps, g.Seconds()*1e3)
			}
			verifyBytes += fr.bytes
			verifyDur += fr.verifyDur
		}
	}
	res.MeasuredS = time.Since(t0).Seconds()
	snap := r.srv.Snapshot(time.Now())

	// Ground truth runs after the timed phase, so its CPU and wall time are
	// in neither the throughput nor the CPU metric.
	served := map[int]bool{}
	for _, er := range res.Epochs {
		served[er.Epoch] = true
	}
	r.verifyAgainstLocal(o.Seed, served)

	var sps, firsts []float64
	samples, cpu := 0, 0.0
	for i := range res.Epochs {
		er := &res.Epochs[i]
		er.Failed = 0
		for rank := 0; rank < world; rank++ {
			if r.failedBy[fetchKey{firstMeasured + i, rank}] {
				er.Failed++
			}
		}
		sps = append(sps, float64(er.Samples)/er.WallS)
		firsts = append(firsts, er.FirstBatchMs[:]...)
		samples += er.Samples
		cpu += er.CPUS
	}
	res.SamplesPerS = median(sps)
	res.FirstBatchMs = median(firsts)
	if samples > 0 {
		res.CPUMsPerSamp = cpu * 1e3 / float64(samples)
	}
	res.Attempted = r.attempted
	res.Failed = len(r.failedBy)
	res.Failures = r.failures
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	res.Verified = r.ver.compared
	res.Layers = layerCounts(snap, gaps, verifyBytes, verifyDur)
	res.GapTail = tailPercentile(gaps)
	if o.Spans {
		if err := r.rec.writeChrome(filepath.Join(o.OutDir, w.Name+"-trace.json")); err != nil {
			return nil, err
		}
	}
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

func (r *runner) start() error {
	r.srv = serve.New(r.cfg)
	if err := r.srv.Start("127.0.0.1:0", ""); err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	for rank := range r.clients {
		c := serve.NewClient(serve.ClientConfig{Addr: r.srv.Addr(), Rank: rank, World: world,
			Name: fmt.Sprintf("perf-rank%d", rank)})
		if err := c.Connect(); err != nil {
			return fmt.Errorf("connect rank %d: %w", rank, err)
		}
		r.clients[rank] = c
	}
	return nil
}

// close says goodbye on both connections and drains the server. A second
// call is a no-op, so error paths may defer it.
func (r *runner) close() error {
	for i, c := range r.clients {
		if c != nil {
			c.Close()
			r.clients[i] = nil
		}
	}
	if r.srv == nil {
		return nil
	}
	srv := r.srv
	r.srv = nil
	return shutdown(srv)
}

// shutdown drains a server, giving streaming epochs ten seconds to finish.
func shutdown(s *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// rankIDs are the global batch ids rank fetches: the static round-robin shard
// of the epoch plan, which is what a world-2 trainer rank asks for.
func (r *runner) rankIDs(epoch, rank int) []int {
	plan := serve.BuildEpochPlan(r.spec.NumSamples, r.spec.BatchSize, r.spec.Shuffle, false, r.spec.Seed, epoch)
	shard := serve.Shard(plan, rank, world)
	ids := make([]int, len(shard))
	for i, pb := range shard {
		ids[i] = pb.GlobalID
	}
	return ids
}

// fetchEpoch has both ranks fetch their shard of epoch concurrently and
// returns when both have seen EpochEnd (or failed).
func (r *runner) fetchEpoch(epoch int) (epochRecord, [world]fetchResult) {
	seq := r.seq
	r.seq++
	var frs [world]fetchResult
	var wg sync.WaitGroup
	root := r.rec.begin(fmt.Sprintf("epoch %d", epoch), 0, 0)
	user0, sys0 := cpuUserSys()
	start := time.Now()
	for rank := range r.clients {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			frs[rank] = r.fetchShard(seq, epoch, rank, root)
		}(rank)
	}
	wg.Wait()
	er := epochRecord{Epoch: epoch, WallS: time.Since(start).Seconds()}
	user1, sys1 := cpuUserSys()
	er.CPUS, er.CPUSysS = user1-user0+sys1-sys0, sys1-sys0
	r.rec.end(root)
	for rank, fr := range frs {
		r.attempted++
		if fr.err != nil {
			r.fail(fetchKey{seq, rank}, fmt.Sprintf("epoch %d rank %d: %v", epoch, rank, fr.err))
			er.Failed++
		}
		er.Samples += fr.samples
		er.Bytes += fr.bytes
		er.FirstBatchMs[rank] = fr.first.Seconds() * 1e3
	}
	return er, frs
}

func (r *runner) fail(key fetchKey, why string) {
	if !r.failedBy[key] {
		r.failedBy[key] = true
		r.failures = append(r.failures, why)
	}
}

func (r *runner) fetchShard(seq, epoch, rank, parent int) fetchResult {
	var fr fetchResult
	lane := rank + 1
	ids := r.rankIDs(epoch, rank)
	fetch := r.rec.begin("serve.Client.FetchShard", lane, parent)
	start := time.Now()
	last := start
	err := r.clients[rank].FetchShard(epoch, ids, func(b *serve.Batch, payload []byte) {
		now := time.Now()
		if fr.samples == 0 {
			fr.first = now.Sub(start)
		}
		fr.gaps = append(fr.gaps, now.Sub(last))
		vs := r.rec.begin("client.verify", lane, fetch)
		if err := r.ver.observe(seq, rank, b); err != nil && fr.err == nil {
			fr.err = err
		}
		r.rec.end(vs)
		last = time.Now()
		fr.verifyDur += last.Sub(now)
		fr.samples += len(b.Indices)
		fr.bytes += int64(len(payload)) + 4
	})
	r.rec.end(fetch)
	switch {
	case err != nil:
		fr.err = err
	case fr.err == nil && fr.samples == 0:
		fr.err = errors.New("no batches delivered")
	}
	return fr
}

// verifyAgainstLocal compares what was served with the local single-process
// run for epoch 0 and two seed-chosen epochs of the measured phase, and marks
// every fetch that delivered a mismatching batch as failed.
func (r *runner) verifyAgainstLocal(seed int64, measured map[int]bool) {
	pick := rng.New(seed, "perf/verify")
	pool := make([]int, 0, len(measured))
	for e := range measured {
		if e != 0 {
			pool = append(pool, e)
		}
	}
	sort.Ints(pool)
	epochs := []int{0}
	for _, i := range pick.Perm(len(pool))[:min(2, len(pool))] {
		epochs = append(epochs, pool[i])
	}
	bad, err := r.ver.check(epochs, pick)
	if err != nil {
		for seq := 0; seq < r.seq; seq++ {
			for rank := 0; rank < world; rank++ {
				r.fail(fetchKey{seq, rank}, err.Error())
			}
		}
		return
	}
	for _, m := range bad {
		r.fail(fetchKey{m.seq, m.rank}, fmt.Sprintf("epoch %d batch %d (fetch %d, rank %d): %s differs from the local run",
			m.epoch, m.id, m.seq, m.rank, m.what))
	}
}

// layerCounts reads the per-workload layer metrics off the server's snapshot
// and the clients' batch timings.
func layerCounts(snap serve.MetricsSnapshot, gapsMs []float64, verifyBytes int64, verifyDur time.Duration) map[string]float64 {
	m := map[string]float64{}
	frac := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	if c := snap.Cache; c != nil {
		m["serve.batchcache_hit_frac"] = frac(c.Hits+c.SingleflightWait, c.Misses)
		m["serve.batchcache_evicted"] = float64(c.Evicted)
		m["serve.singleflight_waits"] = float64(c.SingleflightWait)
	}
	if c := snap.SampleCache; c != nil {
		m["pipeline.samplecache_hit_frac"] = frac(c.Hits, c.Misses)
		m["pipeline.samplecache_evicted"] = float64(c.Evicted)
	}
	if d := snap.DiskCache; d != nil {
		m["store.disk_hit_frac"] = frac(d.BatchHits+d.SampleHits, d.BatchMisses+d.SampleMisses)
		m["store.spills_dropped"] = float64(d.SpillsDropped)
	}
	var waitUs, delayUs float64
	var waits, delays int64
	for _, s := range snap.Sessions {
		waitUs += s.MeanWaitUs * float64(s.WaitCount)
		delayUs += s.MeanDelayUs * float64(s.DelayCount)
		waits += s.WaitCount
		delays += s.DelayCount
	}
	if waits > 0 {
		m["serve.wait_ms_per_batch"] = waitUs / float64(waits) / 1e3
	}
	if delays > 0 {
		m["serve.delay_ms_per_batch"] = delayUs / float64(delays) / 1e3
	}
	if snap.WritevCalls > 0 {
		m["serve.writev_frames_per_call"] = float64(snap.WritevFrames) / float64(snap.WritevCalls)
	}
	m["client.batch_gap_p50_ms"] = median(gapsMs)
	m["client.batch_gap_tail_ms"] = tailPercentile(gapsMs).Value
	if verifyDur > 0 {
		m["client.verify_MBps"] = float64(verifyBytes) / 1e6 / verifyDur.Seconds()
	}
	return m
}
