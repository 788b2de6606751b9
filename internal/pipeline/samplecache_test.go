package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/imaging"
	"lotus/internal/native"
	"lotus/internal/tensor"
	"lotus/internal/testutil"
)

// samplesEqual compares two per-batch payload maps element for element.
func samplesEqual(t *testing.T, label string, want, got map[int][]float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: batch counts diverge: %d vs %d", label, len(want), len(got))
	}
	for id, w := range want {
		g := got[id]
		if len(g) != len(w) {
			t.Fatalf("%s: batch %d payload lengths diverge", label, id)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: batch %d diverges at element %d", label, id, i)
			}
		}
	}
}

// TestSampleCacheByteIdentityAcrossEpochs is the end-to-end acceptance test:
// two augmented epochs served through the cache must be byte-identical to the
// same epochs run without it, the first epoch must populate one entry per
// sample, and the second must hit on every one of them.
func TestSampleCacheByteIdentityAcrossEpochs(t *testing.T) {
	const n = 24
	ds := fastRealDataset(n, 3)
	cache := NewSampleCache(64<<20, true, nil)
	const fp = 0x5eedca11
	for _, epoch := range []int{0, 1} {
		want := runRealEpoch(t, ds, 2, epoch, nil, 0)
		got := runRealEpoch(t, ds, 2, epoch, cache, fp)
		samplesEqual(t, fmt.Sprintf("epoch %d", epoch), want, got)
	}
	st := cache.Stats()
	if st.Misses != n {
		t.Fatalf("misses %d, want %d (one prefix materialization per sample)", st.Misses, n)
	}
	// Three cached passes after the first: the uncached comparison runs do not
	// touch the cache, so accesses = 2 epochs x n, of which n missed.
	if st.Hits != n {
		t.Fatalf("hits %d, want %d (every second-epoch access must hit)", st.Hits, n)
	}
	if st.Evicted != 0 || st.Entries != n {
		t.Fatalf("unexpected eviction under an ample budget: %+v", st)
	}
	if st.BytesUsed <= 0 || st.BytesUsed > st.BytesBudget {
		t.Fatalf("bytes accounting out of range: %+v", st)
	}
}

// TestSampleCacheSingleFlight hammers one key from concurrent wall-clock
// procs: exactly one requester may compute the prefix; everyone else must
// resolve via the ready entry (hit or single-flight wait), and every result
// must carry identical bytes.
func TestSampleCacheSingleFlight(t *testing.T) {
	const procs = 8
	ds := fastRealDataset(2, 3)
	cache := NewSampleCache(64<<20, true, nil)
	results := make([][]float32, procs)
	clk := clock.NewReal()
	clk.Run("main", func(p clock.Proc) {
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			g := g
			wg.Add(1)
			p.Go(fmt.Sprintf("worker-%d", g), func(wp clock.Proc) {
				defer wg.Done()
				ctx := &Ctx{Proc: wp, Mode: RealData, Seed: 5, Epoch: 1,
					MaterializeDim: 64, SampleCache: cache, PrefixFP: 0x1}
				c := augmentedTestCompose(ds.IO)
				rec := ds.Record(0)
				s := Sample{Index: 0, FileBytes: rec.FileBytes, Seed: rec.Seed,
					Width: rec.Width, Height: rec.Height, Channels: 3}
				s = c.Apply(ctx, WorkerPID(g), 0, s)
				results[g] = append([]float32(nil), s.Tensor.F32...)
			})
		}
		wg.Wait()
	})
	st := cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses %d, want 1: single-flight must compute the prefix once", st.Misses)
	}
	if st.Hits+st.SingleflightWait != procs-1 {
		t.Fatalf("hits %d + waits %d, want %d resolved without recompute",
			st.Hits, st.SingleflightWait, procs-1)
	}
	if st.Bypassed != 0 || st.Abandoned != 0 {
		t.Fatalf("unexpected bypass/abandon in blocking mode: %+v", st)
	}
	for g := 1; g < procs; g++ {
		if len(results[g]) != len(results[0]) {
			t.Fatalf("proc %d payload length diverges", g)
		}
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("proc %d output diverges at %d: cache served non-identical bytes", g, i)
			}
		}
	}
}

// TestSampleCacheEvictionChurn runs the cached pipeline under a 1-byte budget:
// every fulfilled entry is immediately evicted, the second epoch cannot hit,
// and — the property that matters — output bytes stay identical to the
// uncached run throughout the churn.
func TestSampleCacheEvictionChurn(t *testing.T) {
	const n = 12
	ds := fastRealDataset(n, 3)
	cache := NewSampleCache(1, true, nil)
	for _, epoch := range []int{0, 1} {
		want := runRealEpoch(t, ds, 2, epoch, nil, 0)
		got := runRealEpoch(t, ds, 2, epoch, cache, 0x2)
		samplesEqual(t, fmt.Sprintf("churn epoch %d", epoch), want, got)
	}
	st := cache.Stats()
	if st.Misses != 2*n {
		t.Fatalf("misses %d, want %d (no entry survives a 1-byte budget)", st.Misses, 2*n)
	}
	if st.Hits != 0 {
		t.Fatalf("hits %d under a 1-byte budget", st.Hits)
	}
	if st.Evicted != 2*n {
		t.Fatalf("evicted %d, want %d", st.Evicted, 2*n)
	}
	if st.Entries != 0 || st.BytesUsed != 0 {
		t.Fatalf("cache retained state it should have evicted: %+v", st)
	}
}

// flakyDeterministic panics on its first N applications, then succeeds — an
// injected storage fault surfacing inside the cacheable prefix.
type flakyDeterministic struct {
	fails int
}

func (f *flakyDeterministic) Name() string        { return "FlakyDet" }
func (f *flakyDeterministic) Deterministic() bool { return true }
func (f *flakyDeterministic) Kernels() []string   { return nil }
func (f *flakyDeterministic) Apply(ctx *Ctx, s Sample) Sample {
	if f.fails > 0 {
		f.fails--
		panic("flakyDeterministic: injected prefix failure")
	}
	return s
}

// TestSampleCacheAbandonOnPanic: a panic inside a claimed prefix must abandon
// the claim (so waiters retry instead of parking forever) and leave the cache
// able to serve the key once the fault clears.
func TestSampleCacheAbandonOnPanic(t *testing.T) {
	cache := NewSampleCache(1<<20, true, nil)
	engine := native.NewEngine(native.Intel, native.DefaultCPU())
	c := NewCompose(&flakyDeterministic{fails: 1}, &RandomHorizontalFlip{})
	sim := clock.NewSim()
	sim.Run("main", func(p clock.Proc) {
		ctx := &Ctx{Proc: p, Engine: engine, Thread: &native.Thread{ID: 1},
			Mode: Simulated, Seed: 7, SampleCache: cache, PrefixFP: 0x3}
		s := Sample{Index: 4, Width: 32, Height: 32, Channels: 3, Dtype: tensor.Uint8}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("prefix fault did not propagate")
				}
			}()
			c.Apply(ctx, 1, 0, s)
		}()
		if st := cache.Stats(); st.Abandoned != 1 {
			t.Errorf("abandoned %d after prefix panic, want 1", st.Abandoned)
		}
		c.Apply(ctx, 1, 0, s) // fault cleared: re-claim and fulfill
		c.Apply(ctx, 1, 0, s) // now a hit
	})
	st := cache.Stats()
	if st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("misses %d hits %d, want 2 misses (claim, re-claim) and 1 hit: %+v",
			st.Misses, st.Hits, st)
	}
}

// TestSampleCacheNonBlockingBypass: on a simulated clock a proc that finds a
// key in flight must never park on the owner's channel — it bypasses and
// computes privately, keeping the sim scheduler's no-foreign-blocking
// invariant.
func TestSampleCacheNonBlockingBypass(t *testing.T) {
	cache := NewSampleCache(1<<20, false, nil)
	engine := native.NewEngine(native.Intel, native.DefaultCPU())
	sim := clock.NewSim()
	sim.Run("main", func(p clock.Proc) {
		for i := 0; i < 2; i++ {
			i := i
			p.Go(fmt.Sprintf("w%d", i), func(wp clock.Proc) {
				ctx := &Ctx{Proc: wp, Engine: engine, Thread: &native.Thread{ID: 1 + i},
					Mode: Simulated, Seed: 3, SampleCache: cache, PrefixFP: 0x4}
				// The loader's modeled I/O sleep yields the sim scheduler, so
				// the second proc arrives while the first holds the claim.
				c := NewCompose(&Loader{IO: data.DefaultIO()}, &RandomHorizontalFlip{})
				s := Sample{Index: 0, FileBytes: 50_000, Seed: 3, Width: 64, Height: 64, Channels: 3}
				c.Apply(ctx, WorkerPID(i), 0, s)
			})
		}
	})
	st := cache.Stats()
	if st.Misses != 1 || st.Bypassed != 1 {
		t.Fatalf("misses %d bypassed %d, want 1 and 1 (second proc bypasses the in-flight claim): %+v",
			st.Misses, st.Bypassed, st)
	}
	if st.SingleflightWait != 0 {
		t.Fatalf("a simulated proc registered as a blocking waiter: %+v", st)
	}
}

// stuckOnce is a deterministic prefix op whose first application parks until
// released — a claim owner that has stopped making progress. Every later
// application passes straight through.
type stuckOnce struct {
	taken   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *stuckOnce) Name() string        { return "StuckOnce" }
func (g *stuckOnce) Deterministic() bool { return true }
func (g *stuckOnce) Kernels() []string   { return nil }
func (g *stuckOnce) Apply(ctx *Ctx, s Sample) Sample {
	if g.taken.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
	return s
}

// TestSampleCacheWaiterHonorsEpochAbort: a worker parked on another
// session's in-flight prefix must leave the wait when its own epoch is
// aborted (Ctx.Abort closes), so a severed session's batch is bounded by its
// own work and not by the foreign owner's progress (or the 30 s single-flight
// timeout).
func TestSampleCacheWaiterHonorsEpochAbort(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ds := fastRealDataset(4, 3)
	cache := NewSampleCache(64<<20, true, nil)
	const fp = 0xab027
	gate := &stuckOnce{entered: make(chan struct{}), release: make(chan struct{})}
	compose := NewCompose(gate, &Loader{IO: ds.IO}, &Resize{W: 32, H: 32},
		&RandomHorizontalFlip{}, &ToTensor{})

	// Session A claims sample 0 and gets stuck inside its prefix.
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		clock.NewReal().Run("owner", func(p clock.Proc) {
			ctx := &Ctx{Proc: p, Mode: RealData, Seed: 5, MaterializeDim: 64,
				SampleCache: cache, PrefixFP: fp}
			rec := ds.Record(0)
			compose.Apply(ctx, WorkerPID(0), 0, Sample{Index: 0, FileBytes: rec.FileBytes,
				Seed: rec.Seed, Width: rec.Width, Height: rec.Height, Channels: 3})
		})
	}()
	<-gate.entered

	// Session B's worker reaches sample 0 next and parks on A's claim. Its
	// Ctx.Abort is the session's done channel, as the serving plane sets it.
	abort := make(chan struct{})
	w := NewBatchWorker(0, NewImageFolder(ds, compose), Config{
		BatchSize: 4, NumWorkers: 1, Seed: 5, Mode: RealData, MaterializeDim: 64,
		SampleCache: cache, PrefixFP: fp,
	})
	w.Ctx.Abort = abort
	workerDone := make(chan error, 1)
	go clock.NewReal().Run("worker", func(p clock.Proc) {
		_, err := w.Run(p, 0, []int{0, 1, 2, 3}, nil)
		workerDone <- err
	})
	for deadline := time.Now().Add(10 * time.Second); cache.Stats().SingleflightWait == 0; {
		if time.Now().After(deadline) {
			t.Error("session B never waited on session A's claim; the test exercises nothing")
			break
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	close(abort)
	select {
	case err := <-workerDone:
		if err != nil {
			t.Errorf("the aborted batch failed: %v", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("aborted batch took %v to finish behind a foreign in-flight prefix, want < 2s", d)
		}
	case <-time.After(10 * time.Second):
		t.Error("the aborted worker is still parked on the foreign claim after 10s")
		close(gate.release)
		<-workerDone
		<-ownerDone
		return
	}
	close(gate.release)
	<-ownerDone
}

// TestCachedSampleRefcountSurvivesEviction: an evicted entry's pixels must
// stay valid for a reader that retained it before the eviction, through
// arbitrary pool churn, and return to the pool only on the final release.
func TestCachedSampleRefcountSurvivesEviction(t *testing.T) {
	im := imaging.GetImage(8, 8)
	for i := range im.Pix {
		im.Pix[i] = uint8(i * 7)
	}
	s := Sample{Index: 1, Width: 8, Height: 8, Channels: 3, Dtype: tensor.Uint8, Image: im}
	cs := snapshotSample(s)
	im.Release()

	cs.Retain()  // a reader mid-copy
	cs.Release() // the cache evicts the entry

	// Churn the pool: if the eviction freed the buffer early, one of these
	// gets handed the reader's pixels.
	for i := 0; i < 50; i++ {
		churn := imaging.GetImage(8, 8)
		for j := range churn.Pix {
			churn.Pix[j] = 0xFF
		}
		churn.Release()
	}
	for i, v := range cs.img.Pix {
		if v != uint8(i*7) {
			t.Fatalf("retained snapshot mutated at %d: eviction released pixels under a live reader", i)
		}
	}
	cs.Release() // reader done: now the buffer really retires
}

// TestRandomResizedCropDegenerateBufferDiscipline hammers the real-mode
// RandomResizedCrop with 1x1 inputs — the degenerate geometry where the crop
// params always select the full frame, forcing the alias path that must not
// double-release the source buffer. Concurrent procs plus a repeat-and-compare
// check catch both races (under -race) and pool corruption from a stale
// release handing one proc's pixels to another.
func TestRandomResizedCropDegenerateBufferDiscipline(t *testing.T) {
	clk := clock.NewReal()
	clk.Run("main", func(p clock.Proc) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			p.Go(fmt.Sprintf("rrc-%d", g), func(wp clock.Proc) {
				defer wg.Done()
				ctx := &Ctx{Proc: wp, Mode: RealData, Seed: int64(g), MaterializeDim: 32}
				for i := 0; i < 60; i++ {
					run := func() []float32 {
						src := imaging.SynthesizeImage(1, 1, int64(i))
						s := Sample{Index: i, Seed: int64(i), Width: 1, Height: 1,
							Channels: 3, Dtype: tensor.Uint8, Image: src}
						s = (&RandomResizedCrop{Size: 8}).Apply(ctx, s)
						s = (&ToTensor{}).Apply(ctx, s)
						return s.Tensor.F32
					}
					a, b := run(), run()
					for j := range a {
						if a[j] != b[j] {
							t.Errorf("proc %d iter %d: repeated degenerate crop diverged at %d (buffer discipline violated)", g, i, j)
							return
						}
					}
				}
			})
		}
		wg.Wait()
	})
}
