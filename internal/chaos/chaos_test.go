package chaos

import (
	"errors"
	"strings"
	"testing"

	"lotus/internal/faultinject"
	"lotus/internal/serve"
	"lotus/internal/store"
	"lotus/internal/workloads"
)

// TestSweepAllInvariantsHold is the chaos acceptance test: every row of the
// table passes its invariants, each as its own subtest, so that
// -run 'TestSweepAllInvariantsHold/cluster-autotune-slow-node' runs one row.
// Every non-baseline row fails itself if its faults never fired; the
// baselines must inject nothing. Short mode (-short) trims the loader rows to
// one workload but keeps every class.
func TestSweepAllInvariantsHold(t *testing.T) {
	for _, c := range cells(Options{Seed: 1, Short: testing.Short()}) {
		t.Run(c.class+"/"+c.workload, func(t *testing.T) {
			r := c.exec()
			if !r.OK() {
				t.Errorf("chaos cell failed: %s", r)
			}
			if c.class == "baseline" && r.Injected != 0 {
				t.Errorf("baseline injected %d faults", r.Injected)
			}
			t.Logf("chaos: %s", r)
		})
	}
}

// TestSweepIsSeedDeterministic: two sweeps with the same seed inject the
// identical fault counts per cell — the property that makes a failing cell
// reproducible.
func TestSweepIsSeedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("second full sweep is not worth short-mode time")
	}
	a := Sweep(Options{Seed: 7, Short: true})
	b := Sweep(Options{Seed: 7, Short: true})
	if len(a) != len(b) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Injected != b[i].Injected {
			t.Errorf("cell %d diverged: %s=%d vs %s=%d",
				i, a[i].Class, a[i].Injected, b[i].Class, b[i].Injected)
		}
	}
}

// TestPredictionIndependentOfWorkerCount: the same spec predicts and skips
// the same batches whether one worker or many process the epoch — the
// schedule-independence that makes skip accounting exact.
func TestPredictionIndependentOfWorkerCount(t *testing.T) {
	fspec := faultinject.Spec{Seed: 3, ReadErrorNth: 5}
	var first []string
	for _, workers := range []int{1, 2, 4} {
		spec := chaosSpec(workloads.IC, 0, 1)
		spec.NumWorkers = workers
		res := loaderCell("read-error", spec, fspec).exec()
		if !res.OK() {
			t.Fatalf("workers=%d: %s", workers, res)
		}
		if first == nil {
			first = res.Notes
		} else if len(res.Notes) > 0 && len(first) > 0 && res.Notes[0] != first[0] {
			t.Errorf("workers=%d changed the outcome: %v vs %v", workers, res.Notes, first)
		}
	}
}

// TestRunnerCatchesFaults feeds the served runner one row per kind of
// violation it exists to catch and asserts the row reports it: a check that
// cannot fail proves nothing.
func TestRunnerCatchesFaults(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var held *serve.Frame
	defer func() {
		if held != nil {
			held.Release()
		}
	}()
	// fetch streams shards of epoch 0 from the row's server into one sink: a
	// client that asks for the wrong IDs.
	fetch := func(shards ...[]int) client {
		return func(e *env) {
			c := serve.NewClient(serve.ClientConfig{Addr: e.srvs[0].Addr(), Name: "chaos-faulty"})
			defer c.Close()
			s := e.newSink("faulty")
			for _, ids := range shards {
				e.outcome("faulty client", c.FetchShard(0, ids, s.deliver))
			}
		}
	}
	var holdErr error
	for _, tc := range []struct {
		name, want string
		row        row
	}{
		{"flipped oracle byte", "batch 2 not byte-identical", row{
			before: func(e *env, _ int) { e.oracle[0][2][len(e.oracle[0][2])/2] ^= 1 }}},
		{"duplicate delivery", "1 duplicate deliveries", row{client: fetch([]int{0, 1, 2, 3, 4, 5, 6, 7}, []int{3})}},
		{"missing batch", "delivered 7 of 8 batches", row{client: fetch([]int{0, 1, 2, 3, 4, 5, 7})}},
		{"leaked goroutine", "goroutine leak", row{check: func(*env) { go func() { <-release }() }}},
		{"unreleased frame", "frame leak", row{check: func(*env) { held, holdErr = holdFrame(t.TempDir()) }}},
		{"fault that fires nothing", "fault class injected nothing", row{faults: faultinject.Spec{DropFrame: 1000}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			class := "baseline"
			if tc.row.faults != (faultinject.Spec{}) {
				class = "wire-drop"
			}
			tc.row.class = class
			res := servedCell(1, tc.row).exec()
			if holdErr != nil {
				t.Fatal(holdErr)
			}
			if !strings.Contains(strings.Join(res.Failures, "\n"), tc.want) {
				t.Errorf("row failures %q, want one containing %q", res.Failures, tc.want)
			}
		})
	}
}

// holdFrame takes a Frame from a batch cache over a disk tier in dir and keeps
// it: the one way to hold frame memory from outside the serve package.
func holdFrame(dir string) (*serve.Frame, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := st.Put(store.Key{Kind: store.KindBatch, FP: 1}, []byte("frame")); err != nil {
		return nil, err
	}
	bc := serve.NewBatchCache(1<<20, st)
	defer bc.Purge()
	return bc.Acquire(serve.BatchKey{Fingerprint: 1}, nil, func() (*serve.Frame, error) {
		return nil, errors.New("not on disk")
	})
}
