package serve

import (
	"path/filepath"
	"slices"
	"testing"

	"lotus/internal/core/trace"
	"lotus/internal/data"
	"lotus/internal/pipeline"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

const corpusTestSamples = 32

// serveEpochs serves epochs 0..epochs-1 of a real-pixel server with no batch
// cache one at a time, holds every frame equal to the local run, and hands
// the /metrics document after each epoch to check.
func serveEpochs(t *testing.T, spec workloads.Spec, sampleCacheBytes int64, epochs int, check func(epoch int, snap *MetricsSnapshot)) {
	t.Helper()
	spec.BatchSize = 8
	spec.NumWorkers = 2
	const dim = 48
	srv := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: dim,
		SampleCacheBytes: sampleCacheBytes, Prefetch: 2, Logf: t.Logf})
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var snap MetricsSnapshot
	getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &snap)
	if snap.Corpus != nil || snap.Decode != nil {
		t.Fatalf("corpus %+v and decode %+v blocks before any batch was computed", snap.Corpus, snap.Decode)
	}
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "corpus-test"})
	defer c.Close()
	for epoch := 0; epoch < epochs; epoch++ {
		want, err := LocalBatches(spec, pipeline.RealData, dim, epoch, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		if err := fetchOnce(c, epoch, func(b *Batch, _ []byte) {
			frames++
			if !sameBatch(b, want[b.GlobalID]) {
				t.Errorf("epoch %d batch %d differs from the local run", epoch, b.GlobalID)
			}
		}, nil); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if frames != len(want) {
			t.Fatalf("epoch %d: %d frames, want %d", epoch, frames, len(want))
		}
		snap = MetricsSnapshot{}
		getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &snap)
		if snap.Corpus == nil || snap.Decode == nil {
			t.Fatalf("epoch %d: /metrics lacks the corpus or decode block on a real-pixel image server", epoch)
		}
		check(epoch, &snap)
	}
	// Rewritten or not, the plan leaves the trace its shape: a valid served
	// trace, and per sample one record per op, under the op's own name, in
	// plan order.
	recs := srv.ring.Snapshot()
	if issues := trace.Validate(recs); len(issues) > 0 {
		t.Fatalf("served trace does not validate: %v", issues)
	}
	type sampleKey struct{ batch, index int }
	ops := map[sampleKey][]string{}
	for _, r := range recs {
		if r.Kind == trace.KindOp && r.SampleIndex >= 0 {
			k := sampleKey{r.BatchID, r.SampleIndex}
			ops[k] = append(ops[k], r.Op)
		}
	}
	if sampleCacheBytes > 0 {
		return // a prefix hit runs, and records, only the suffix
	}
	want := spec.OpOrder()
	want = want[:len(want)-1] // Collate is per batch
	if len(ops) != epochs*spec.NumSamples {
		t.Fatalf("op records for %d (batch, sample) pairs, want %d", len(ops), epochs*spec.NumSamples)
	}
	for k, got := range ops {
		if !slices.Equal(got, want) {
			t.Fatalf("batch %d sample %d: op records %v, want %v", k.batch, k.index, got, want)
		}
	}
}

// TestServedCorpusCounters: fabricating the input happens once and is seen
// to, and so is what the decoder skips. After epoch 0 of an N-sample cold run
// rendered is N and stands still; every further cold epoch is N reads. Every
// cold IC decode takes the crop's window; no ICA decode does.
func TestServedCorpusCounters(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	const n = corpusTestSamples
	var filePx int64
	var lookups uint64
	serveEpochs(t, workloads.ICSpec(n, 7), 0, 3, func(epoch int, snap *MetricsSnapshot) {
		// Every RandomResizedCrop resamples both axes of its window: two
		// coefficient lookups per sample served (the counters are the
		// process's, so the local reference run adds its own).
		r := snap.Resize
		if got := r.CoeffHits + r.CoeffMisses; got < lookups+2*n {
			t.Fatalf("after epoch %d: resize %+v, want at least %d more lookups than %d", epoch, r, 2*n, lookups)
		} else {
			lookups = got
		}
		st := snap.Corpus
		want := data.CorpusStats{Rendered: n, Reads: int64(n * epoch), Bytes: st.Bytes}
		if *st != want || st.Bytes == 0 {
			t.Fatalf("after epoch %d: corpus %+v, want %+v with bytes > 0", epoch, *st, want)
		}
		d := snap.Decode
		if d.Windowed != int64(n*(epoch+1)) || d.Full != 0 || d.PxSkipped <= 0 || d.PxDecoded <= 0 {
			t.Fatalf("after epoch %d: decode %+v, want windowed %d, full 0, pixels on both sides", epoch, *d, n*(epoch+1))
		}
		// Decoded + skipped is the files' area, the same every epoch.
		if epoch == 0 {
			filePx = d.PxDecoded + d.PxSkipped
		} else if got := d.PxDecoded + d.PxSkipped; got != filePx*int64(epoch+1) {
			t.Fatalf("after epoch %d: decoded + skipped = %d px, want %d x %d", epoch, got, epoch+1, filePx)
		}
		if want := "IC: crop→decode, tensor tail→collate"; snap.Plan != want {
			t.Fatalf("plan %q, want %q", snap.Plan, want)
		}
	})
	serveEpochs(t, workloads.ICASpec(n, 7), 0, 2, func(epoch int, snap *MetricsSnapshot) {
		d := snap.Decode
		if d.Windowed != 0 || d.Full != int64(n*(epoch+1)) || d.PxSkipped != 0 {
			t.Fatalf("ICA after epoch %d: decode %+v, want full %d and nothing windowed or skipped", epoch, *d, n*(epoch+1))
		}
		if snap.Plan != "ICA: tensor tail→collate (no crop follows the decode)" {
			t.Fatalf("plan %q", snap.Plan)
		}
	})
}

// TestServedReadCounters: /metrics shows what the modeled reads of served
// samples cost and how long the workers waited for them. On a cold epoch the
// wait never exceeds the model; at the served cap, where a sample's decode
// outlasts its read, the batch's read-ahead hides most of it.
func TestServedReadCounters(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	serveEpochs(t, workloads.ICSpec(corpusTestSamples, 7), 0, 1, func(_ int, snap *MetricsSnapshot) {
		if d := snap.Decode; d.ReadModeledMS <= 0 || d.ReadWaitedMS > d.ReadModeledMS {
			t.Fatalf("decode %+v: want 0 < read_waited_ms <= read_modeled_ms", *d)
		}
	})

	spec := workloads.ICSpec(64, 7)
	spec.BatchSize, spec.NumWorkers = 32, 2
	srv := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: 256, Logf: t.Logf})
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "read-test"})
	defer c.Close()
	if err := fetchOnce(c, 0, func(*Batch, []byte) {}, nil); err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &snap)
	if d := snap.Decode; d == nil || d.ReadModeledMS <= 0 || d.ReadWaitedMS >= d.ReadModeledMS/2 {
		t.Fatalf("decode %+v at cap 256: want the workers to wait out less than half the modeled reads", d)
	}
}

// TestServedSampleCacheKeepsFullDecodes: with the sample cache on, IC's cached
// prefix is the Loader's output, so the rewrite must stay off — the server
// says so, no decode takes a window, each sample is decoded once, in full
// (the cache is charged exactly the files' W x H x 3), and the frames still
// equal the local run's, which has no cache and does rewrite.
func TestServedSampleCacheKeepsFullDecodes(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	const n, dim = corpusTestSamples, 48
	spec := workloads.ICSpec(n, 7)
	var fileBytes int64
	ds := data.NewImageDataset(data.ImageNetConfig(n, spec.Seed))
	for i := 0; i < n; i++ {
		w, h := data.CappedDims(ds.Record(i).Width, ds.Record(i).Height, dim)
		fileBytes += int64(w * h * 3)
	}
	serveEpochs(t, spec, 64<<20, 3, func(epoch int, snap *MetricsSnapshot) {
		if snap.Plan != "IC: tensor tail→collate (sample cache holds the full decode)" {
			t.Fatalf("plan %q", snap.Plan)
		}
		if d := snap.Decode; d.Windowed != 0 || d.Full != n || d.PxSkipped != 0 || d.PxDecoded*3 != fileBytes {
			t.Fatalf("after epoch %d: decode %+v, want %d full decodes of %d px in all, none windowed", epoch, *d, n, fileBytes/3)
		}
		sc := snap.SampleCache
		if sc == nil || sc.Entries != n || sc.BytesUsed != fileBytes || sc.Misses != n || sc.Hits != int64(n*epoch) {
			t.Fatalf("after epoch %d: sample cache %+v, want %d entries of %d bytes in all (full decodes)", epoch, sc, n, fileBytes)
		}
	})
}

// TestServedCorpusWithoutTempDir: with nowhere to put the file the server
// renders every touch inline, says so on /metrics, and the client sees the
// same bytes and no error.
func TestServedCorpusWithoutTempDir(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	serveEpochs(t, workloads.ICSpec(corpusTestSamples, 7), 0, 2, func(epoch int, snap *MetricsSnapshot) {
		if want := (data.CorpusStats{Disabled: true}); *snap.Corpus != want {
			t.Fatalf("after epoch %d: corpus %+v, want %+v", epoch, *snap.Corpus, want)
		}
	})
}

// TestPerfSpecFingerprintsUnchanged pins the fingerprints of the benchmark's
// served configurations (perf/workload.go: N 512, seed 7, batch 32, two
// workers, RealData at cap 256; ic_cold, ic_hot and ic_spill share the IC
// spec, ica_warm is ICA). The corpus changes where a sample's file comes
// from, never its bytes, so cache keys must not move with it: a disk tier
// warmed by an earlier build stays warm. The batch fingerprints moved once
// since, on purpose, when frame layout 4 put pixels where float32s were
// (a version 3 disk tier must read as misses); the prefix fingerprints,
// whose snapshots hold the same decodes as before, did not.
func TestPerfSpecFingerprintsUnchanged(t *testing.T) {
	for _, g := range []struct {
		workloads  string
		spec       workloads.Spec
		fp, prefix uint64
	}{
		{"ic_cold ic_hot ic_spill", workloads.ICSpec(512, 7), 0x31e4a9c00d841dde, 0x433af2aa7c8a060f},
		{"ica_warm", workloads.ICASpec(512, 7), 0x1e973abfe1b56c2b, 0x238981258b59b949},
	} {
		g.spec.BatchSize = 32
		g.spec.NumWorkers = 2
		if fp := SpecFingerprint(g.spec, pipeline.RealData, 256); fp != g.fp {
			t.Errorf("%s: SpecFingerprint %#016x, want %#016x", g.workloads, fp, g.fp)
		}
		if fp, ok := PrefixFingerprint(g.spec, pipeline.RealData, 256); !ok || fp != g.prefix {
			t.Errorf("%s: PrefixFingerprint %#016x (ok %v), want %#016x", g.workloads, fp, ok, g.prefix)
		}
	}
}
