package chaos

import (
	"testing"

	"lotus/internal/faultinject"
	"lotus/internal/workloads"
)

// TestSweepAllInvariantsHold is the chaos acceptance test: every cell of the
// fault-class × workload matrix passes its invariants, and every fault class
// has at least one run where faults actually fired. Short mode (-short, the
// CI configuration) trims workloads but keeps every class.
func TestSweepAllInvariantsHold(t *testing.T) {
	results := Sweep(Options{Seed: 1, Short: testing.Short(), Logf: t.Logf})
	injectedByClass := map[string]int64{}
	for _, r := range results {
		if !r.OK() {
			t.Errorf("chaos cell failed: %s", r)
		}
		injectedByClass[r.Class] += r.Injected
	}
	for _, class := range []string{
		"read-error", "read-stall", "worker-panic", "worker-stall",
		"wire-drop", "wire-truncate", "wire-corrupt", "server-panic", "client-disconnect",
		"disk-rewarm", "disk-torn-manifest", "disk-corrupt-segment",
		"cluster-node-kill", "cluster-node-slow", "cluster-heartbeat-flap",
		"cluster-node-kill-rewarm",
		"cluster-hedge-slow-node",
		"cluster-autotune-slow-node",
	} {
		if injectedByClass[class] == 0 {
			t.Errorf("fault class %q never injected a fault", class)
		}
	}
	if n, ok := injectedByClass["baseline"]; !ok || n != 0 {
		t.Errorf("baseline cells missing or injected faults: %d", n)
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
		spec := chaosSpec(workloads.IC, 1)
		spec.NumWorkers = workers
		res := pipelineCellWithSpec("read-error", spec, fspec)
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

// TestClusterAutotuneSlowNodeCell runs the balancer-convergence cell on its
// own so CI can gate it (and a failure reproduces) without a full sweep.
func TestClusterAutotuneSlowNodeCell(t *testing.T) {
	r := clusterAutotuneSlowNodeCell(1)
	if !r.OK() {
		t.Fatalf("chaos cell failed: %s", r)
	}
	t.Logf("chaos: %s", r)
}
