package control

import (
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		s    Sample
		want Bottleneck
	}{
		{"saturated gpu wins", Sample{GPUUtil: 0.95, LongWaitFrac: 0.9}, BottleneckAccelerator},
		{"long waits", Sample{GPUUtil: 0.3, LongWaitFrac: 0.5}, BottleneckPreprocessing},
		{"balanced", Sample{GPUUtil: 0.8, LongWaitFrac: 0.01}, BottleneckBalanced},
		{"stall-free but idle gpu", Sample{GPUUtil: 0.2, LongWaitFrac: 0.01}, BottleneckUnknown},
		{"hysteresis band", Sample{GPUUtil: 0.8, LongWaitFrac: 0.15}, BottleneckUnknown},
	}
	for _, c := range cases {
		if got := Classify(c.s); got != c.want {
			t.Errorf("%s: Classify(%+v) = %v, want %v", c.name, c.s, got, c.want)
		}
	}
}

func TestSelectCheapest(t *testing.T) {
	samples := []Sample{
		{Workers: 1, E2E: 10 * time.Second, CPUSeconds: 1},
		{Workers: 4, E2E: 4 * time.Second, CPUSeconds: 5},
		{Workers: 8, E2E: 3900 * time.Millisecond, CPUSeconds: 11},
	}
	// 4 workers is within 8% of the fastest and much cheaper.
	if got := SelectCheapest(samples, 0.08, 0); got != 1 {
		t.Fatalf("SelectCheapest = %d, want 1", got)
	}
	// A CPU budget of 2s leaves only the 1-worker run in budget.
	if got := SelectCheapest(samples, 0.08, 2); got != 0 {
		t.Fatalf("SelectCheapest(budget=2) = %d, want 0", got)
	}
	// Nothing in budget: fall back to the cheapest outright.
	if got := SelectCheapest(samples, 0.08, 0.5); got != 0 {
		t.Fatalf("SelectCheapest(budget=0.5) = %d, want 0", got)
	}
	if got := SelectCheapest(nil, 0.08, 0); got != -1 {
		t.Fatalf("SelectCheapest(nil) = %d, want -1", got)
	}
}

func TestBalancerConvergesOnSlowNode(t *testing.T) {
	b := NewBalancer()
	sample := func(ms map[string]int) []NodeSample {
		out := make([]NodeSample, 0, len(ms))
		for n, m := range ms {
			out = append(out, NodeSample{Node: n, Batches: 10, PerBatch: time.Duration(m) * time.Millisecond})
		}
		return out
	}
	// weights stands in for the ring: each proposal is applied to it.
	var weights map[string]float64
	for i := 0; i < 6; i++ {
		if w := b.Observe(sample(map[string]int{"a": 10, "b": 10, "c": 30}), weights); w != nil {
			weights = w
		}
	}
	if weights == nil {
		t.Fatal("balancer never proposed a re-weight for a 3x-slow node")
	}
	if weights["a"] != 1 || weights["b"] != 1 {
		t.Fatalf("fast nodes must keep full weight, got %v", weights)
	}
	// 3x slower -> weight converges to ~1/3.
	if w := weights["c"]; w < 0.25 || w > 0.45 {
		t.Fatalf("slow node weight = %.2f, want ~0.33", w)
	}
}

func TestBalancerDeadBandSuppressesNoise(t *testing.T) {
	b := NewBalancer()
	moves := 0
	for i := 0; i < 10; i++ {
		// +-5% jitter around a balanced cluster: inside the dead band.
		m := 10 + i%2
		if w := b.Observe([]NodeSample{
			{Node: "a", Batches: 10, PerBatch: time.Duration(m) * time.Millisecond},
			{Node: "b", Batches: 10, PerBatch: 10 * time.Millisecond},
		}, nil); w != nil {
			moves++
		}
	}
	if moves != 0 {
		t.Fatalf("balanced cluster with jitter inside the dead band re-weighted %d times", moves)
	}
}

func TestBalancerMinWeightFloor(t *testing.T) {
	b := NewBalancer()
	var weights map[string]float64
	for i := 0; i < 4; i++ {
		if w := b.Observe([]NodeSample{
			{Node: "fast", Batches: 10, PerBatch: time.Millisecond},
			{Node: "dead-slow", Batches: 10, PerBatch: time.Second},
		}, weights); w != nil {
			weights = w
		}
	}
	if weights == nil {
		t.Fatal("expected a re-weight")
	}
	if w := weights["dead-slow"]; w != 1.0/16 {
		t.Fatalf("slow node floored at %.4f, want 1/16", w)
	}
}

func TestBalancerNeedsMinSamples(t *testing.T) {
	b := NewBalancer()
	for i := 0; i < 5; i++ {
		if w := b.Observe([]NodeSample{
			{Node: "a", Batches: 1, PerBatch: time.Millisecond}, // below balanceMinSamples
			{Node: "b", Batches: 1, PerBatch: 30 * time.Millisecond},
		}, nil); w != nil {
			t.Fatalf("cold windows must not re-weight, got %v", w)
		}
	}
}
