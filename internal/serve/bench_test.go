package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotus/internal/pipeline"
	"lotus/internal/tensor"
	"lotus/internal/workloads"
)

// benchBatch builds a materialize-sized wire batch (the shape the serving hot
// path encodes): 64 samples, one 64x3x32x32 u8 tensor payload.
func benchBatch() *Batch {
	idx := make([]int, 64)
	lab := make([]int, 64)
	for i := range idx {
		idx[i] = i
		lab[i] = i % 7
	}
	return &Batch{
		Epoch:    0,
		GlobalID: 3,
		Indices:  idx,
		Labels:   lab,
		Dtype:    tensor.Uint8,
		Shape:    []int{64, 3, 32, 32},
		U8:       make([]byte, 64*3*32*32),
	}
}

// BenchmarkEncodeBatch is the allocating encoder: one fresh buffer per frame.
func BenchmarkEncodeBatch(b *testing.B) {
	m := benchBatch()
	b.SetBytes(int64(batchWireSize(m)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeBatch(m)
	}
}

// BenchmarkEncodeBatchPooled is the serving hot path's pooled encoder; after
// warmup it must run at zero allocations per frame (guarded by
// TestEncodeBatchFramePooledAllocs).
func BenchmarkEncodeBatchPooled(b *testing.B) {
	m := benchBatch()
	b.SetBytes(int64(batchWireSize(m)))
	b.ReportAllocs()
	for i := 0; i < 16; i++ {
		encodeBatchFrame(m).Release() // warm the size class
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeBatchFrame(m).Release()
	}
}

// hotFrameBatch is the perf harness's frame — 32 x 3 x 224 x 224 float32,
// 19 MB — so the two benchmarks below are the in-package form of its
// serve.encode_MBps and serve.decode_MBps rungs.
func hotFrameBatch() *Batch {
	m := &Batch{GlobalID: 3, Indices: make([]int, 32), Labels: make([]int, 32),
		Dtype: tensor.Float32, Shape: []int{32, 3, 224, 224}, F32: make([]float32, 32*3*224*224)}
	for i := range m.F32 {
		m.F32[i] = float32(i%251) - 125
	}
	return m
}

// hotPixelBatch is the frame the perf harness's IC workloads are served in
// since the wire point moved to the client: the same 32 samples one pass
// short, 32 x 224 x 224 x 3 uint8, 4.8 MB.
func hotPixelBatch() *Batch {
	m := &Batch{GlobalID: 3, Indices: make([]int, 32), Labels: make([]int, 32),
		Dtype: tensor.Uint8, Shape: []int{32, 224, 224, 3}, U8: make([]uint8, 32*224*224*3)}
	for i := range m.U8 {
		m.U8[i] = uint8(i % 251)
	}
	return m
}

// BenchmarkAppendBatch is the reference encoder into a reused buffer: one
// bulk copy of the tensor on a little-endian host.
func BenchmarkAppendBatch(b *testing.B) {
	m := hotFrameBatch()
	buf := make([]byte, 0, batchWireSize(m))
	b.SetBytes(int64(batchWireSize(m)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBatch(buf[:0], m)
	}
}

// BenchmarkDecodeBatch is DecodeMessage on a 19 MB frame: a view when the
// payload is aligned (what a Client's receive buffer is), the copy-convert
// loop when it is not.
func BenchmarkDecodeBatch(b *testing.B) {
	enc := EncodeBatch(hotFrameBatch())
	for name, payload := range map[string][]byte{"aligned": enc, "misaligned": misaligned(enc)} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeMessage(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionFootprint reports the marginal per-session cost of the
// serving tier: heap bytes and goroutines per connected-but-idle session and
// per session that has streamed one epoch — the session-slimming
// regression gauge for O(1000)-session serving. Both series fail themselves
// above sessionMaxBytes or sessionMaxGoroutines per session: an idle session
// is its connection goroutine and little else.
func BenchmarkSessionFootprint(b *testing.B) {
	b.Run("idle", func(b *testing.B) { benchSessionFootprint(b, false) })
	b.Run("streaming", func(b *testing.B) { benchSessionFootprint(b, true) })
}

func benchSessionFootprint(b *testing.B, streamed bool) {
	const n = 128
	spec := workloads.ICSpec(1280, 7)
	spec.BatchSize = 10 // 128 batches: every rank's shard has one
	spec.NumWorkers = 1
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		BatchCacheBytes: 64 << 20})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	measure := func() (heap int64, goroutines int) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc), runtime.NumGoroutine()
	}
	heap0, g0 := measure()

	clients := make([]*Client, n)
	for rank := range clients {
		clients[rank] = NewClient(ClientConfig{Addr: srv.Addr(), Rank: rank, World: n,
			Name: fmt.Sprintf("fp-%d", rank)})
		if err := clients[rank].Connect(); err != nil {
			b.Fatal(err)
		}
		defer clients[rank].Close()
	}
	if streamed {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				if _, err := c.Run(1, nil); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}

	heap1, g1 := measure()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The reported metrics are gauges measured in setup; nothing to time.
	}
	b.StopTimer()
	heapPer, goroutinesPer := float64(heap1-heap0)/n, float64(g1-g0)/n
	b.ReportMetric(heapPer, "bytes/session")
	b.ReportMetric(goroutinesPer, "goroutines/session")
	if heapPer > sessionMaxBytes || goroutinesPer > sessionMaxGoroutines {
		b.Fatalf("%.0f bytes and %.3f goroutines per session, want <= %d and <= %.2f",
			heapPer, goroutinesPer, sessionMaxBytes, sessionMaxGoroutines)
	}
}

// The session footprint bounds: one goroutine per session with 5% slack for
// runtime helpers, and 12 KiB, about 1.6x the ~7.4 KB an idle session
// measures and 1.2x the ~10.0 KB of a session that streamed one batch.
const (
	sessionMaxBytes      = 12 << 10
	sessionMaxGoroutines = 1.05
)

// BenchmarkSessionScaling is the multi-tenancy throughput axis: every client
// is an independent full-plan session (rank 0, world 1) against a
// cache-warmed server, so aggregate served batches/sec isolates the
// session-scalability hot path — admission, shared plans, cache fan-out, one
// vectored write per frame — from pipeline compute. Every client checks each
// frame's CRC32C and its (epoch, id) against its request position; the
// callback is nil, so no bytes are compared with a ground truth. The frames
// are Simulated (metadata only), so the rates are model output; the same
// gate on real frames sits too close to its bound on 2 vCPUs (DESIGN §16).
// The benchmark fails itself unless clients=256 reaches at least 0.8x the
// clients=8 aggregate, whenever both run.
func BenchmarkSessionScaling(b *testing.B) {
	rates := make(map[string]float64)
	for _, clients := range []int{8, 64, 256, 1024} {
		name := fmt.Sprintf("clients=%d", clients)
		b.Run(name, func(b *testing.B) {
			rates[name] = benchSessionScaling(b, clients)
		})
	}
	ratioGate(b, rates, "clients=256", "clients=8", 0.8)
}

// benchSessionScaling returns the aggregate batches/sec it reports.
func benchSessionScaling(b *testing.B, clients int) float64 {
	spec := workloads.ICSpec(1280, 7)
	spec.BatchSize = 64 // 20 batches per full plan
	spec.NumWorkers = 1
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 4,
		BatchCacheBytes: 256 << 20, MaxSessions: 2048})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	conns := make([]*Client, clients)
	for i := range conns {
		conns[i] = NewClient(ClientConfig{Addr: srv.Addr(),
			Name: fmt.Sprintf("scale-%d", i)})
		if err := conns[i].Connect(); err != nil {
			b.Fatal(err)
		}
		defer conns[i].Close()
	}
	// Warm the batch cache once so the timed region measures the serving
	// tier, not the pipeline.
	if err := fetchOnce(conns[0], 0, nil, nil); err != nil {
		b.Fatal(err)
	}

	var totalBatches atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				var st FetchStats
				if err := fetchOnce(c, 0, nil, &st); err != nil {
					b.Error(err)
					return
				}
				totalBatches.Add(int64(st.Batches))
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	rate := float64(totalBatches.Load()) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "batches/sec")
	return rate
}

// BenchmarkSessionScalingCold is the compute-side twin of
// BenchmarkSessionScaling: every client is an independent full-plan session
// fetching an epoch nobody else wants, with every cache off, so aggregate
// samples/sec is what the host's cores deliver when N cold trainers share
// them. It must be RealData: in emulate mode "work" is a sleep, and however
// many workers run they overlap sleeps for free, so the comparison would
// measure the cost model, not the host. The worker count is twice the cores
// — the usual loader sizing, leaving room to overlap the modeled storage
// reads — whatever the session count. Peak goroutines and heap over the timed
// region ride along. The benchmark fails itself unless clients=256 reaches at
// least 0.8x the clients=8 aggregate, whenever both run.
func BenchmarkSessionScalingCold(b *testing.B) {
	rates := make(map[string]float64)
	for _, clients := range []int{8, 64, 256} {
		name := fmt.Sprintf("clients=%d", clients)
		b.Run(name, func(b *testing.B) {
			rates[name] = benchSessionScalingCold(b, clients)
		})
	}
	ratioGate(b, rates, "clients=256", "clients=8", 0.8)
}

// benchSessionScalingCold returns the aggregate samples/sec it reports.
func benchSessionScalingCold(b *testing.B, clients int) float64 {
	spec := workloads.ICSpec(16, 7)
	spec.BatchSize = 4 // 4 batches per full plan, 2.4 MB of float32 each
	spec.NumWorkers = 2 * runtime.GOMAXPROCS(0)
	srv := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: 64,
		Prefetch: 4, MaxSessions: 2048})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	conns := make([]*Client, clients)
	for i := range conns {
		conns[i] = NewClient(ClientConfig{Addr: srv.Addr(),
			Name: fmt.Sprintf("cold-%d", i)})
		if err := conns[i].Connect(); err != nil {
			b.Fatal(err)
		}
		defer conns[i].Close()
	}

	var peakGoroutines, peakHeap atomic.Int64
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		var ms runtime.MemStats
		for {
			select {
			case <-stopSampling:
				return
			case <-time.After(20 * time.Millisecond):
			}
			runtime.ReadMemStats(&ms)
			peakGoroutines.Store(max(peakGoroutines.Load(), int64(runtime.NumGoroutine())))
			peakHeap.Store(max(peakHeap.Load(), int64(ms.HeapAlloc)))
		}
	}()

	var totalSamples atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for ci, c := range conns {
			wg.Add(1)
			go func(c *Client, epoch int) {
				defer wg.Done()
				var st FetchStats
				if err := fetchOnce(c, epoch, nil, &st); err != nil {
					b.Error(err)
					return
				}
				totalSamples.Add(int64(st.Batches * spec.BatchSize))
			}(c, i*clients+ci)
		}
		wg.Wait()
	}
	b.StopTimer()
	close(stopSampling)
	sampler.Wait()
	rate := float64(totalSamples.Load()) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "samples/sec")
	b.ReportMetric(float64(peakGoroutines.Load()), "peak-goroutines")
	b.ReportMetric(float64(peakHeap.Load())/(1<<20), "peak-heap-MB")
	return rate
}

// BenchmarkTenantFairness is the multi-tenancy fairness axis: of four
// equal-weight tenants the adversarial one runs three times the sessions of
// each polite tenant. Sessions stream cache-served full plans continuously
// for a fixed window; per-tenant completed batches over that window yield
// Jain's fairness index (1.0 = the greedy tenant gained nothing by
// over-subscribing; 0.75 = its 3x sessions bought 3x service). The worst
// per-tenant p99 batch latency and aggregate throughput ride along. The
// benchmark fails itself when the worst window's Jain index drops below
// minJain, so CI needs no parsing around it.
func BenchmarkTenantFairness(b *testing.B) {
	const (
		politeTenants  = 3
		politeSessions = 4
		greedySessions = 3 * politeSessions
		windowPerIter  = 300 * time.Millisecond
		minJain        = 0.9
	)
	spec := workloads.ICSpec(1280, 7)
	spec.BatchSize = 64
	spec.NumWorkers = 1
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 4,
		BatchCacheBytes: 256 << 20})
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	type sess struct {
		tenant int
		c      *Client
	}
	var sessions []sess
	addSessions := func(tenant int, name string, count int) {
		for i := 0; i < count; i++ {
			c := NewClient(ClientConfig{Addr: srv.Addr(),
				Name: fmt.Sprintf("%s-%d", name, i), Tenant: name})
			if err := c.Connect(); err != nil {
				b.Fatal(err)
			}
			sessions = append(sessions, sess{tenant, c})
		}
	}
	for t := 0; t < politeTenants; t++ {
		addSessions(t, fmt.Sprintf("polite-%d", t), politeSessions)
	}
	addSessions(politeTenants, "greedy", greedySessions)
	defer func() {
		for _, s := range sessions {
			s.c.Close()
		}
	}()
	if err := fetchOnce(sessions[0].c, 0, nil, nil); err != nil {
		b.Fatal(err) // warm the cache outside the window
	}

	const tenants = politeTenants + 1
	worstJain := 1.0
	var total int64
	var worstP99 time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counts [tenants]atomic.Int64
		hists := make([]LatencyHist, len(sessions))
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for si, s := range sessions {
			wg.Add(1)
			go func(si int, s sess) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var st FetchStats
					if err := fetchOnce(s.c, 0, nil, &st); err != nil {
						b.Error(err)
						return
					}
					counts[s.tenant].Add(int64(st.Batches))
					hists[si].Merge(&st.Hist)
				}
			}(si, s)
		}
		time.Sleep(windowPerIter)
		close(stop)
		wg.Wait()

		xs := make([]float64, tenants)
		for t := range xs {
			xs[t] = float64(counts[t].Load())
			total += counts[t].Load()
		}
		if j := JainIndex(xs); j < worstJain {
			worstJain = j
		}
		var perTenant [tenants]LatencyHist
		for si, s := range sessions {
			perTenant[s.tenant].Merge(&hists[si])
		}
		for t := range perTenant {
			if p := perTenant[t].Quantile(0.99); p > worstP99 {
				worstP99 = p
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(worstJain, "jain")
	b.ReportMetric(float64(worstP99.Microseconds()), "p99-us")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(total)/sec, "batches/sec")
	}
	if worstJain < minJain {
		b.Fatalf("worst-window Jain index %.4f < %.1f: the greedy tenant's extra sessions bought it service", worstJain, minJain)
	}
}

// BenchmarkDigest is the client's whole integrity cost for one real-mode
// frame: one hardware CRC32C pass (the server's cost on a cache hit is
// nothing). It must not allocate.
func BenchmarkDigest(b *testing.B) {
	payload := make([]byte, 19<<20)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = Digest(payload)
	}
}

// digestSink keeps BenchmarkDigest's call from being optimised away.
var digestSink uint32

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
