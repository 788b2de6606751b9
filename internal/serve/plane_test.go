package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lotus/internal/core/trace"
	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// TestColdSessionsShareOnePool: 64 concurrent cold sessions, each fetching an
// epoch nobody else wants with every cache off, compute on the one
// NumWorkers-sized pool — never more than 2 batches at once, where a loader
// per session ran 128 worker procs — and every frame is still byte-identical
// to the local run.
func TestColdSessionsShareOnePool(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	const sessions = 64
	spec := workloads.ICSpec(32, 7)
	spec.BatchSize = 8 // 4 batches per epoch
	spec.NumWorkers = 2
	spec.WorkScale = 0.1 // the modeled latencies only pace the test
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, EmulateTime: true, Prefetch: 4})

	var wg sync.WaitGroup
	for e := 0; e < sessions; e++ {
		expected := localEpochFrames(t, spec, e)
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			c := NewClient(ClientConfig{Addr: srv.Addr(), Name: fmt.Sprintf("cold-%d", e)})
			defer c.Close()
			if err := c.Connect(); err != nil {
				t.Errorf("session %d: %v", e, err)
				return
			}
			got := 0
			err := fetchOnce(c, e, func(b *Batch, payload []byte) {
				got++
				if !bytes.Equal(payload, expected[b.GlobalID]) {
					t.Errorf("epoch %d batch %d differs from the local run", e, b.GlobalID)
				}
			}, nil)
			if err != nil || got != len(expected) {
				t.Errorf("session %d: %d of %d batches, err %v", e, got, len(expected), err)
			}
		}(e)
	}
	wg.Wait()
	if peak := srv.plane.peak(); peak != spec.NumWorkers {
		t.Fatalf("%d sessions ran %d batch computations at once, want exactly the pool's %d",
			sessions, peak, spec.NumWorkers)
	}
}

// peak reports the plane's high-water mark of concurrent batch computations.
func (pl *plane) peak() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.all
}

// holdPool takes every slot of the server's compute plane, so computes
// issued afterwards queue; the returned func releases them.
func holdPool(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	g := srv.plane.gate
	n := g.slots
	for i := 0; i < n; i++ {
		if err := g.acquire("holder", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			g.release()
		}
	}
}

// TestPlaneWeightedOrder: with one worker and two tenants queued, the plane
// serves batches in weighted-round-robin order — the fair gate is the queue
// discipline, not a wrapper around it.
func TestPlaneWeightedOrder(t *testing.T) {
	spec := loopbackSpec()
	spec.NumWorkers = 1
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated,
		Tenants: map[string]TenantLimit{"heavy": {Weight: 2}, "light": {Weight: 1}}})
	pl := srv.plane

	// Record the order batches run in from inside the worker: the one slot
	// serializes the hook, so the slice needs no lock.
	pl.once.Do(pl.init)
	var order []int
	preprocessed := pl.cfg.Hooks.OnBatchPreprocessed
	pl.cfg.Hooks.OnBatchPreprocessed = func(pid, batchID int, start time.Time, dur time.Duration) {
		order = append(order, batchID/srv.planLen) // the epoch: 0 heavy, 1 light
		preprocessed(pid, batchID, start, dur)
	}

	release := holdPool(t, srv)
	var wg sync.WaitGroup
	queue := func(tenant string, epoch, n int) {
		plan := srv.epochPlan(epoch)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(pb PlanBatch) {
				defer wg.Done()
				f, err := pl.compute(context.Background(), srv.qos.tenant(tenant), epoch, pb)
				if err != nil {
					t.Errorf("%s: %v", tenant, err)
					return
				}
				f.Release()
			}(plan[i])
		}
	}
	queue("heavy", 0, 6)
	waitForQueued(t, pl.gate, 6)
	queue("light", 1, 3)
	waitForQueued(t, pl.gate, 9)
	release()
	wg.Wait()
	if got, want := fmt.Sprint(order), "[0 0 1 0 0 1 0 0 1]"; got != want {
		t.Fatalf("batches ran in tenant order %s, want %s (2:1 by weight)", got, want)
	}
}

// TestPlaneSlowWorkerHoldsBackOnlyItsBatch: one pool slot that stalls after
// every batch it runs (a persistently degraded worker) delays the batch it
// is holding and nothing else — the shared queue hands everything behind it
// to the healthy slot, which is the straggler absorption a per-worker index
// queue needed work stealing for. One cold epoch stays byte-identical to the
// local run, and the trace ring shows the stalled slot computed a small
// minority of it.
func TestPlaneSlowWorkerHoldsBackOnlyItsBatch(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := workloads.ICSpec(256, 7)
	spec.BatchSize = 8 // 32 batches
	spec.NumWorkers = 2
	spec.WorkScale = 0.05 // the modeled latencies only pace the test
	inj := faultinject.New(faultinject.Spec{Seed: 1, SlowWorkerID: 1, SlowWorkerStall: 200 * time.Millisecond})
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, EmulateTime: true,
		Prefetch: 8, Faults: inj})

	expected := localEpochFrames(t, spec, 0)
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "cold"})
	defer c.Close()
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	got := 0
	err := fetchOnce(c, 0, func(b *Batch, payload []byte) {
		got++
		if !bytes.Equal(payload, expected[b.GlobalID]) {
			t.Errorf("batch %d differs from the local run", b.GlobalID)
		}
	}, nil)
	if err != nil || got != len(expected) {
		t.Fatalf("%d of %d batches, err %v", got, len(expected), err)
	}

	byPID := map[int]int{}
	for _, r := range srv.ring.Snapshot() {
		if r.Kind == trace.KindBatchPreprocessed {
			byPID[r.PID]++
		}
	}
	slow, healthy := byPID[pipeline.WorkerPID(0)], byPID[pipeline.WorkerPID(1)]
	if slow+healthy != len(expected) {
		t.Fatalf("ring tallies %d+%d batches over pids %v, want %d", slow, healthy, byPID, len(expected))
	}
	t.Logf("stalled slot ran %d batches, healthy slot %d", slow, healthy)
	if slow == 0 || inj.Counts().WorkerStalls == 0 {
		t.Fatal("the stalled slot never ran a batch; the test exercises nothing")
	}
	if slow*4 > len(expected) {
		t.Fatalf("stalled slot computed %d of %d batches, want at most a quarter: work queued behind it", slow, len(expected))
	}
}

// TestPlaneCancelWhileQueued: a compute whose session goes away while it
// queues for a worker returns the cancellation and leaks no slot.
func TestPlaneCancelWhileQueued(t *testing.T) {
	spec := loopbackSpec()
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated})
	pl := srv.plane
	pb := srv.epochPlan(0)[0]

	release := holdPool(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := pl.compute(ctx, nil, 0, pb)
		errc <- err
	}()
	waitForQueued(t, pl.gate, 1)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("compute canceled in the queue returned a frame")
	}
	release()

	// Every slot is back: as many computes as the pool has workers run
	// without anybody releasing anything.
	for i := 0; i < pl.gate.slots; i++ {
		if err := pl.gate.acquire("probe", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	pl.gate.mu.Lock()
	free := pl.gate.free
	pl.gate.mu.Unlock()
	if free != 0 {
		t.Fatalf("gate reports %d free slots with every slot held", free)
	}
}

// TestFairGateResize: growing grants queued waiters at once; shrinking never
// interrupts a holder, takes effect as slots come back, and never goes below
// one slot.
func TestFairGateResize(t *testing.T) {
	g := newFairGate(1)
	if err := g.acquire("a", 1, nil); err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			if err := g.acquire("a", 1, nil); err == nil {
				granted <- struct{}{}
			}
		}()
	}
	waitForQueued(t, g, 2)
	g.resize(3)
	for i := 0; i < 2; i++ {
		select {
		case <-granted:
		case <-time.After(5 * time.Second):
			t.Fatal("resize up did not wake the queued waiters")
		}
	}

	// Three holders, shrink to "zero": the floor is one slot, the holders
	// keep theirs, and a newcomer gets in only once the pool has narrowed.
	g.resize(0)
	if g.slots != 1 {
		t.Fatalf("resize(0) left %d slots, want the floor of 1", g.slots)
	}
	go func() {
		if err := g.acquire("b", 1, nil); err == nil {
			granted <- struct{}{}
		}
	}()
	waitForQueued(t, g, 1)
	for i := 0; i < 2; i++ {
		g.release()
		select {
		case <-granted:
			t.Fatalf("newcomer granted after %d of 3 releases: the shrink did not hold", i+1)
		case <-time.After(20 * time.Millisecond):
		}
	}
	g.release()
	select {
	case <-granted:
	case <-time.After(5 * time.Second):
		t.Fatal("newcomer never granted after the pool narrowed to one slot")
	}
}

// TestSpillReadsEachFrameOnce: with memory for a quarter of an epoch over a
// warm disk tier, every served frame costs exactly one disk read and no
// recompute. (An up-front whole-shard claim used to read each frame twice:
// once to publish it, and again at write time after the LRU had evicted it.)
func TestSpillReadsEachFrameOnce(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := loopbackSpec() // 10 batches per epoch
	dir := t.TempDir()
	frame := int64(len(localEpochFrames(t, spec, 0)[0]))
	cfg := Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		BatchCacheBytes: frame * 10 / 4, DiskCacheDir: dir}
	srv := startServer(t, cfg)
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "spill"})
	defer c.Close()
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	for _, e := range []int{0, 1} { // compute both epochs once, spill them
		if err := fetchOnce(c, e, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.FlushDiskCache(); err != nil {
		t.Fatal(err)
	}
	warm, _ := srv.DiskCacheStats()

	served := 0
	for i := 0; i < 6; i++ {
		var st FetchStats
		if err := fetchOnce(c, i%2, nil, &st); err != nil {
			t.Fatal(err)
		}
		served += st.Batches
	}
	now, _ := srv.DiskCacheStats()
	if reads := now.BatchHits - warm.BatchHits; served != 60 || reads != int64(served) {
		t.Fatalf("%d frames served from a warm disk tier cost %d disk reads, want exactly one each",
			served, reads)
	}
	if now.BatchMisses != warm.BatchMisses {
		t.Fatalf("warm disk tier missed %d times", now.BatchMisses-warm.BatchMisses)
	}
}

// TestShutdownKicksIdleKeepsStreaming: a graceful drain disconnects a
// connected-but-idle client at once instead of sitting out its whole budget
// on a read only that client could end, while a session that is mid-epoch
// still receives every batch.
func TestShutdownKicksIdleKeepsStreaming(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	spec := workloads.ICSpec(80, 7)
	spec.BatchSize = 8 // 10 batches per epoch
	spec.NumWorkers = 2
	// Every batch stalls 100ms after preprocessing, so the streaming session
	// is reliably mid-epoch when the drain starts.
	inj := faultinject.New(faultinject.Spec{Seed: 1, StallNth: 1, WorkerStall: 100 * time.Millisecond})
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, EmulateTime: true,
		Prefetch: 2, Faults: inj})

	idle := NewClient(ClientConfig{Addr: srv.Addr(), Name: "idle", Rank: 0, World: 10})
	defer idle.Close()
	if err := idle.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := fetchOnce(idle, 0, nil, nil); err != nil { // one epoch, then stay connected
		t.Fatal(err)
	}

	busy := NewClient(ClientConfig{Addr: srv.Addr(), Name: "busy"})
	defer busy.Close()
	if err := busy.Connect(); err != nil {
		t.Fatal(err)
	}
	first := make(chan struct{})
	var once sync.Once
	var st FetchStats
	busyDone := make(chan error, 1)
	go func() {
		busyDone <- fetchOnce(busy, 1, func(*Batch, []byte) { once.Do(func() { close(first) }) }, &st)
	}()
	<-first

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain with one idle and one streaming client: %v", err)
	}
	if err := <-busyDone; err != nil || st.Batches != 10 {
		t.Fatalf("streaming session got %d of 10 batches through the drain, err %v", st.Batches, err)
	}
	// The streaming epoch needs ~0.5s more (10 stalls of 100ms on 2 workers);
	// an idle client holding the drain would push this to the 5s budget.
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("drain took %v", took)
	}
}

// TestShutdownIdleClientReturnsAtOnce: with nothing streaming, a client that
// fetched an epoch and stayed connected costs the drain none of its budget
// (it used to cost all of it, and a deadline error).
func TestShutdownIdleClientReturnsAtOnce(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	srv := startServer(t, Config{Spec: loopbackSpec(), Mode: pipeline.Simulated})
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "idle"})
	defer c.Close()
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := fetchOnce(c, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain with one idle client: %v", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("drain with one idle client took %v of a 5s budget", took)
	}
}

// TestShutdownDeadlineAbortsStreaming: a session still streaming when the
// drain budget runs out is aborted — even mid-stall — and Shutdown reports
// the deadline.
func TestShutdownDeadlineAbortsStreaming(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	inj := faultinject.New(faultinject.Spec{Seed: 1, StallNth: 1, WorkerStall: 30 * time.Second})
	srv := startServer(t, Config{Spec: loopbackSpec(), Mode: pipeline.Simulated, EmulateTime: true,
		Prefetch: 2, Faults: inj})
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "stuck"})
	defer c.Close()
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- fetchOnce(c, 0, nil, nil) }()
	for srv.plane.peak() == 0 { // the epoch is streaming once a batch is running
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("forced drain took %v against 30s stalls", took)
	}
	if err := <-done; err == nil {
		t.Fatal("aborted epoch reported success to the client")
	}
}
