package control

import (
	"reflect"
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

// boundSig builds a preprocessing-bound observation at the given tick.
func boundSig(tick int64) Signals {
	return Signals{Counter: tick, WaitCount: 100, LongWaitFrac: 0.6}
}

// idleSig builds a consumer-bound observation (no stalls, full queue).
func idleSig(tick int64) Signals {
	return Signals{Counter: tick, WaitCount: 100, LongWaitFrac: 0.0, QueueFill: 1.0}
}

func TestControllerGrowsWorkersUnderStalls(t *testing.T) {
	c := NewController(Knobs{Workers: 2, Prefetch: 2})
	if acts := c.Observe(boundSig(1)); acts != nil {
		t.Fatalf("first observation must only set the baseline, got %v", acts)
	}
	acts := c.Observe(boundSig(2))
	if len(acts) != 1 || acts[0].Knob != "workers" || acts[0].To != 3 {
		t.Fatalf("expected workers 2->3, got %v", acts)
	}
	if k := c.Knobs(); k.Workers != 3 {
		t.Fatalf("Knobs().Workers = %d, want 3", k.Workers)
	}
}

func TestControllerCooldownAndRepeatedTicks(t *testing.T) {
	c := NewController(Knobs{Workers: 2, Prefetch: 2})
	c.Observe(boundSig(1))
	if acts := c.Observe(boundSig(2)); len(acts) != 1 {
		t.Fatalf("expected one action, got %v", acts)
	}
	// Same counter again: no decision, whatever the signals say.
	if acts := c.Observe(boundSig(2)); acts != nil {
		t.Fatalf("non-advancing counter must be ignored, got %v", acts)
	}
	// Within the cooldown window: the knob rests.
	if acts := c.Observe(boundSig(3)); acts != nil {
		t.Fatalf("cooldown must hold the knob, got %v", acts)
	}
	if acts := c.Observe(boundSig(4)); len(acts) != 1 || acts[0].To != 4 {
		t.Fatalf("expected workers 3->4 after cooldown, got %v", acts)
	}
}

func TestControllerPrefetchAtWorkerCap(t *testing.T) {
	c := NewController(Knobs{Workers: maxWorkers, Prefetch: 2})
	c.Observe(boundSig(1))
	acts := c.Observe(boundSig(2))
	if len(acts) != 1 || acts[0].Knob != "prefetch" || acts[0].To != 3 {
		t.Fatalf("expected prefetch 2->3 at worker cap, got %v", acts)
	}
}

func TestControllerShrinkNeedsStreak(t *testing.T) {
	c := NewController(Knobs{Workers: 4, Prefetch: 2})
	c.Observe(idleSig(1))
	if acts := c.Observe(idleSig(2)); acts != nil {
		t.Fatalf("one idle window must not shrink, got %v", acts)
	}
	acts := c.Observe(idleSig(3))
	if len(acts) != 1 || acts[0].Knob != "workers" || acts[0].To != 3 {
		t.Fatalf("expected workers 4->3 after streak, got %v", acts)
	}
	// A bound window resets the streak.
	c2 := NewController(Knobs{Workers: 4, Prefetch: 2})
	c2.Observe(idleSig(1))
	c2.Observe(idleSig(2))
	c2.Observe(boundSig(3)) // grows workers, resets streak
	if acts := c2.Observe(idleSig(5)); acts != nil {
		t.Fatalf("streak must restart after a bound window, got %v", acts)
	}
}

func TestControllerUntrustedWaitSignal(t *testing.T) {
	c := NewController(Knobs{Workers: 2, Prefetch: 2})
	sig := boundSig(1)
	sig.WaitCount = minWaitSamples - 1
	c.Observe(sig)
	sig.Counter = 2
	if acts := c.Observe(sig); acts != nil {
		t.Fatalf("untrusted wait signal must not act, got %v", acts)
	}
}

func TestControllerDeterministic(t *testing.T) {
	run := func() []Action {
		c := NewController(Knobs{Workers: 1, Prefetch: 2})
		for tick := int64(1); tick <= 10; tick++ {
			c.Observe(boundSig(tick))
		}
		return c.History()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same observation sequence produced different actions:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("expected at least one action")
	}
}

// goldenActions is what the controller returned for goldenSignals when it
// still owned the three cache budgets as well. Dropping the cache half must
// not move a single workers/prefetch decision, tick or reason string.
var goldenActions = []Action{
	{Tick: 2, Knob: "workers", From: 14, To: 15, Reason: "preprocessing-bound: 60% long waits"},
	{Tick: 4, Knob: "workers", From: 15, To: 16, Reason: "preprocessing-bound: 26% long waits"},
	{Tick: 5, Knob: "prefetch", From: 2, To: 3, Reason: "preprocessing-bound at worker cap: 90% long waits"},
	{Tick: 7, Knob: "prefetch", From: 3, To: 4, Reason: "preprocessing-bound at worker cap: 90% long waits"},
	{Tick: 11, Knob: "workers", From: 16, To: 15, Reason: "consumer-bound: queue 90% full, 1.0% long waits"},
	{Tick: 13, Knob: "workers", From: 15, To: 16, Reason: "preprocessing-bound: 60% long waits"},
	{Tick: 19, Knob: "workers", From: 16, To: 15, Reason: "consumer-bound: queue 100% full, 1.0% long waits"},
	{Tick: 21, Knob: "workers", From: 15, To: 14, Reason: "consumer-bound: queue 100% full, 1.0% long waits"},
	{Tick: 24, Knob: "workers", From: 14, To: 13, Reason: "consumer-bound: queue 100% full, 1.0% long waits"},
	{Tick: 26, Knob: "workers", From: 13, To: 14, Reason: "preprocessing-bound: 70% long waits"},
	{Tick: 28, Knob: "workers", From: 14, To: 15, Reason: "preprocessing-bound: 70% long waits"},
	{Tick: 30, Knob: "workers", From: 15, To: 16, Reason: "preprocessing-bound: 70% long waits"},
	{Tick: 32, Knob: "prefetch", From: 4, To: 5, Reason: "preprocessing-bound at worker cap: 70% long waits"},
	{Tick: 34, Knob: "prefetch", From: 5, To: 6, Reason: "preprocessing-bound at worker cap: 70% long waits"},
	{Tick: 36, Knob: "prefetch", From: 6, To: 7, Reason: "preprocessing-bound at worker cap: 70% long waits"},
	{Tick: 38, Knob: "prefetch", From: 7, To: 8, Reason: "preprocessing-bound at worker cap: 70% long waits"},
	// A second controller started from zero knobs.
	{Tick: 9, Knob: "workers", From: 1, To: 2, Reason: "preprocessing-bound: 50% long waits"},
	{Tick: 11, Knob: "workers", From: 2, To: 3, Reason: "preprocessing-bound: 50% long waits"},
}

// TestControllerGoldenActions replays a fixed synthetic observation sequence
// through default-configured controllers and compares every returned action
// against goldenActions.
func TestControllerGoldenActions(t *testing.T) {
	bound := func(tick int64, frac float64) Signals {
		return Signals{Counter: tick, WaitCount: 100, LongWaitFrac: frac, QueueFill: 0.2}
	}
	idle := func(tick int64, fill float64) Signals {
		return Signals{Counter: tick, WaitCount: 100, LongWaitFrac: 0.01, QueueFill: fill}
	}
	untrusted := func(tick int64) Signals {
		return Signals{Counter: tick, WaitCount: 7, LongWaitFrac: 0.9, QueueFill: 1}
	}
	seq := []Signals{
		bound(1, 0.6), // baseline only
		bound(2, 0.6), // workers 14->15
		bound(3, 0.6), // cooldown
		bound(4, 0.26),
		bound(4, 0.9), // repeated tick: ignored
		bound(5, 0.9), // at the worker cap: prefetch
		bound(3, 0.9), // counter went back: ignored
		bound(6, 0.9),
		bound(7, 0.9),
		untrusted(8),
		untrusted(9),
		idle(10, 0.75),
		idle(11, 0.9), // streak of two: shrink
		idle(12, 0.9),
		bound(13, 0.6), // resets the streak, grows workers
		idle(14, 1),
		bound(15, 0.15), // hysteresis band: neither, resets the streak
		idle(16, 1),
		idle(17, 0.74), // queue under 75 %: not consumer-bound
		idle(18, 1),
		idle(19, 1),
		idle(20, 1),
		idle(21, 1),
		untrusted(22),
		idle(23, 1),
		idle(24, 1),
		bound(25, 0.25), // exactly the high mark: not bound
	}
	for tick := int64(26); tick <= 44; tick += 2 {
		seq = append(seq, bound(tick, 0.7)) // up to the worker cap, then the prefetch cap
	}
	var got []Action
	c := NewController(Knobs{Workers: 14, Prefetch: 2})
	for _, s := range seq {
		got = append(got, c.Observe(s)...)
	}
	if k := c.Knobs(); k != (Knobs{Workers: maxWorkers, Prefetch: maxPrefetch}) {
		t.Fatalf("final knobs %+v, want both at their caps", k)
	}
	// From zero knobs: clamped to one worker and the default prefetch, and
	// never shrunk below the floor.
	z := NewController(Knobs{})
	for tick := int64(1); tick <= 8; tick++ {
		got = append(got, z.Observe(idle(tick, 1))...)
	}
	for tick := int64(9); tick <= 12; tick++ {
		got = append(got, z.Observe(bound(tick, 0.5))...)
	}
	if k := z.Knobs(); k != (Knobs{Workers: 3, Prefetch: 2}) {
		t.Fatalf("zero-start knobs %+v, want {3 2}", k)
	}
	if !reflect.DeepEqual(got, goldenActions) {
		t.Fatalf("action sequence drifted from the golden:\n got %v\nwant %v", got, goldenActions)
	}
	if h := append(c.History(), z.History()...); !reflect.DeepEqual(h, goldenActions) {
		t.Fatalf("History disagrees with the returned actions:\n%v", h)
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
	var weights map[string]float64
	for i := 0; i < 6; i++ {
		if w := b.Observe(sample(map[string]int{"a": 10, "b": 10, "c": 30})); w != nil {
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
		}); w != nil {
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
		}); w != nil {
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
		}); w != nil {
			t.Fatalf("cold windows must not re-weight, got %v", w)
		}
	}
}
