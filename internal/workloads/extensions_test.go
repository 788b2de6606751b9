package workloads

import (
	"testing"
	"time"

	"lotus/internal/pipeline"
)

// TestOfflineDecodeRemovesBottleneck reproduces Takeaway 2: decoding the
// dataset offline (as MLPerf's IS/OD do) removes the preprocessing
// bottleneck — GPU utilization rises and the epoch shortens.
func TestOfflineDecodeRemovesBottleneck(t *testing.T) {
	online := ICSpec(512, 1)
	onStats, _, _ := online.Run(nil)

	offline := ICSpec(512, 1)
	offline.OfflineDecode = true
	offStats, _, _ := offline.Run(nil)

	if offStats.Elapsed >= onStats.Elapsed {
		t.Fatalf("offline decode should shorten the epoch: %v vs %v", offStats.Elapsed, onStats.Elapsed)
	}
	if offStats.GPUUtilization() <= onStats.GPUUtilization() {
		t.Fatalf("offline decode should raise GPU utilization: %.2f vs %.2f",
			offStats.GPUUtilization(), onStats.GPUUtilization())
	}
}

// TestOfflineDecodeDropsDecodeOps verifies the online pipeline no longer
// performs the libjpeg work.
func TestOfflineDecodeDropsDecodeOps(t *testing.T) {
	spec := ICSpec(64, 2)
	spec.OfflineDecode = true
	for _, tf := range spec.Compose(nil).Transforms {
		if tf.Name() != "Loader" {
			continue
		}
		for _, k := range tf.Kernels() {
			if k == "decode_mcu" || k == "jpeg_idct_islow" {
				t.Fatalf("offline loader still declares decode kernel %s", k)
			}
		}
	}
	a := runTraced(t, spec)
	st := a.OpStats()
	if st["Loader"].Count != 64 {
		t.Fatalf("Loader logged %d times", st["Loader"].Count)
	}
	// Offline loads are memcpy + I/O of raw bytes: cheaper CPU than decode,
	// though more I/O.
	onA := runTraced(t, ICSpec(64, 2))
	if st["Loader"].Mean >= onA.OpStats()["Loader"].Mean {
		t.Fatalf("offline Loader (%v) should be cheaper than online (%v)",
			st["Loader"].Mean, onA.OpStats()["Loader"].Mean)
	}
}

// TestLeastWorkDispatchReducesInversions compares the PyTorch producer
// policy against the size-aware least-outstanding-work policy (Takeaway 4's
// scheduling direction). Balanced outstanding work should reduce
// out-of-order pressure: fewer or equal OOO arrivals and no worse tail
// delay.
func TestLeastWorkDispatchReducesInversions(t *testing.T) {
	run := func(dispatch pipeline.DispatchPolicy, sizeAware bool) (ooo int, maxDelay time.Duration) {
		spec := ICSpec(64*40, 7)
		spec.BatchSize, spec.GPUs, spec.NumWorkers = 64, 4, 4
		spec.Dispatch = dispatch
		spec.SizeAware = sizeAware
		a := runTraced(t, spec)
		return len(a.OutOfOrderBatches()), a.MaxDelay()
	}
	defOOO, defMax := run(pipeline.DispatchProducer, false)
	lwOOO, lwMax := run(pipeline.DispatchLeastWork, true)
	t.Logf("producer policy: ooo=%d maxDelay=%v; least-work: ooo=%d maxDelay=%v",
		defOOO, defMax, lwOOO, lwMax)
	if defOOO == 0 {
		t.Skip("baseline produced no OOO events; nothing to compare")
	}
	if lwOOO > defOOO+defOOO/4 {
		t.Fatalf("least-work dispatch increased OOO events: %d vs %d", lwOOO, defOOO)
	}
}

// TestDispatchPoliciesDeliverIdenticalData ensures scheduling only reorders
// completion, never changes what is delivered.
func TestDispatchPoliciesDeliverIdenticalData(t *testing.T) {
	collect := func(dispatch pipeline.DispatchPolicy) [][]int {
		spec := ICSpec(100, 3)
		spec.BatchSize, spec.NumWorkers = 10, 3
		spec.Dispatch = dispatch
		spec.SizeAware = dispatch == pipeline.DispatchLeastWork
		var out [][]int
		hooks := &pipeline.Hooks{}
		_ = hooks
		// Use the analysis-free path: run and read back batch indices via
		// a collector on consumed order.
		a := runTraced(t, spec)
		for _, b := range a.Batches() {
			out = append(out, []int{b.ID})
		}
		return out
	}
	a := collect(pipeline.DispatchProducer)
	b := collect(pipeline.DispatchLeastWork)
	if len(a) != len(b) {
		t.Fatalf("batch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i][0] != b[i][0] {
			t.Fatalf("batch order differs at %d — consumption must stay in-order under any policy", i)
		}
	}
}
