package serve

import (
	"bytes"
	"path/filepath"
	"testing"

	"lotus/internal/data"
	"lotus/internal/pipeline"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

const corpusTestSamples = 32

// fetchColdEpochs serves epochs 0..epochs-1 of a cache-less real-pixel IC
// server one at a time, holds every frame equal to the local run, and hands
// the /metrics corpus block after each epoch to check.
func fetchColdEpochs(t *testing.T, epochs int, check func(epoch int, st *data.CorpusStats)) {
	t.Helper()
	spec := workloads.ICSpec(corpusTestSamples, 7)
	spec.BatchSize = 8
	spec.NumWorkers = 2
	const dim = 48
	srv := New(Config{Spec: spec, Mode: pipeline.RealData, MaterializeDim: dim, Prefetch: 2, Logf: t.Logf})
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var snap MetricsSnapshot
	getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &snap)
	if snap.Corpus != nil {
		t.Fatalf("corpus block before any batch was computed: %+v", snap.Corpus)
	}
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "corpus-test"})
	defer c.Close()
	for epoch := 0; epoch < epochs; epoch++ {
		want := localEpochFramesMode(t, spec, epoch, pipeline.RealData, dim)
		frames := 0
		if err := c.fetchEpoch(epoch, func(b *Batch, payload []byte) {
			frames++
			if !bytes.Equal(payload, want[b.GlobalID]) {
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
		if snap.Corpus == nil {
			t.Fatalf("epoch %d: /metrics has no corpus block on a real-pixel image server", epoch)
		}
		check(epoch, snap.Corpus)
	}
}

// TestServedCorpusCounters: fabricating the input happens once and is seen
// to. After epoch 0 of an N-sample cold run rendered is N and stands still;
// every further cold epoch is N reads.
func TestServedCorpusCounters(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	fetchColdEpochs(t, 3, func(epoch int, st *data.CorpusStats) {
		want := data.CorpusStats{Rendered: corpusTestSamples, Reads: int64(corpusTestSamples * epoch), Bytes: st.Bytes}
		if *st != want || st.Bytes == 0 {
			t.Fatalf("after epoch %d: corpus %+v, want %+v with bytes > 0", epoch, *st, want)
		}
	})
}

// TestServedCorpusWithoutTempDir: with nowhere to put the file the server
// renders every touch inline, says so on /metrics, and the client sees the
// same bytes and no error.
func TestServedCorpusWithoutTempDir(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	fetchColdEpochs(t, 2, func(epoch int, st *data.CorpusStats) {
		if want := (data.CorpusStats{Disabled: true}); *st != want {
			t.Fatalf("after epoch %d: corpus %+v, want %+v", epoch, *st, want)
		}
	})
}

// TestPerfSpecFingerprintsUnchanged pins the fingerprints of the benchmark's
// served configurations (perf/workload.go: N 512, seed 7, batch 32, two
// workers, RealData at cap 256; ic_cold, ic_hot and ic_spill share the IC
// spec, ica_warm is ICA) to their values before the corpus existed. The
// corpus changes where a sample's file comes from, never its bytes, so cache
// keys must not move: a disk tier warmed by the parent commit stays warm.
func TestPerfSpecFingerprintsUnchanged(t *testing.T) {
	for _, g := range []struct {
		workloads  string
		spec       workloads.Spec
		fp, prefix uint64
	}{
		{"ic_cold ic_hot ic_spill", workloads.ICSpec(512, 7), 0x31e4acc00d8422f7, 0x433af2aa7c8a060f},
		{"ica_warm", workloads.ICASpec(512, 7), 0x1e973fbfe1b574aa, 0x238981258b59b949},
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
