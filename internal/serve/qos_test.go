package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lotus/internal/pipeline"
	"lotus/internal/workloads"
)

// TestTokenBucketPacing pins the debt-model arithmetic: take always
// succeeds, the balance may go negative, and the returned delay repays the
// debt at exactly the configured rate.
func TestTokenBucketPacing(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := newTokenBucket(1000, 1000, t0) // 1000 tokens/sec, burst 1000

	if d := b.take(1000, t0); d != 0 {
		t.Fatalf("burst take delayed %v, want 0", d)
	}
	if d := b.take(500, t0); d != 500*time.Millisecond {
		t.Fatalf("debt take delayed %v, want 500ms", d)
	}
	// One second later the bucket refilled 1000: balance -500+1000 = 500.
	t1 := t0.Add(time.Second)
	if d := b.take(250, t1); d != 0 {
		t.Fatalf("refilled take delayed %v, want 0", d)
	}
	// Refill never exceeds burst.
	t2 := t1.Add(time.Hour)
	if d := b.take(1500, t2); d != 500*time.Millisecond {
		t.Fatalf("capped-burst take delayed %v, want 500ms", d)
	}
}

// TestFairGateFastPath: an uncontended gate is a decrement, no queues built.
func TestFairGateFastPath(t *testing.T) {
	g := newFairGate(2)
	for i := 0; i < 10; i++ {
		if err := g.acquire("a", 1, nil); err != nil {
			t.Fatal(err)
		}
		g.release()
	}
	if len(g.queues) != 0 {
		t.Fatalf("fast path built %d tenant queues", len(g.queues))
	}
}

// drainGrantOrder queues `per` waiters for each tenant (in slice
// order) against a gate whose single slot is held, then releases the slot
// and records the order in which tenants are granted. Each grantee reports
// itself before releasing, so with one slot the channel order is exactly the
// scheduler's grant order.
func drainGrantOrder(t *testing.T, g *fairGate, tenants []string, weights []int, per int) []string {
	t.Helper()
	if err := g.acquire("holder", 1, nil); err != nil { // pin the slot
		t.Fatal(err)
	}
	order := make(chan string, len(tenants)*per)
	var wg sync.WaitGroup
	for ti, name := range tenants {
		for i := 0; i < per; i++ {
			wg.Add(1)
			go func(name string, w int) {
				defer wg.Done()
				if err := g.acquire(name, w, nil); err != nil {
					t.Error(err)
					return
				}
				order <- name
				g.release()
			}(name, weights[ti])
			// Enqueue one at a time so ring order is deterministic.
			waitForQueued(t, g, ti*per+i+1)
		}
	}
	g.release() // free the pinned slot; grants cascade one at a time
	wg.Wait()
	close(order)
	var got []string
	for name := range order {
		got = append(got, name)
	}
	return got
}

func waitForQueued(t *testing.T, g *fairGate, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		w := g.waiting
		g.mu.Unlock()
		if w >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters queued", w, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFairGateWeightedOrder pins weighted fairness under the sequential
// single-slot regime: a weight-2 tenant must receive exactly two grants per
// scheduling round to the weight-1 tenant's one — the regression case for
// re-crediting a queue on dispatch resume, which would collapse weights to
// plain round robin.
func TestFairGateWeightedOrder(t *testing.T) {
	g := newFairGate(1)
	got := drainGrantOrder(t, g, []string{"heavy", "light"}, []int{2, 1}, 6)
	want := []string{"heavy", "heavy", "light", "heavy", "heavy", "light",
		"heavy", "heavy", "light", "light", "light", "light"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
}

// TestFairGateEqualWeightsInterleave: equal weights alternate regardless of
// how many waiters each tenant has queued.
func TestFairGateEqualWeightsInterleave(t *testing.T) {
	g := newFairGate(1)
	got := drainGrantOrder(t, g, []string{"a", "b"}, []int{1, 1}, 4)
	want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
}

// TestFairGateCancel: a canceled waiter returns errQoSCanceled, does not
// leak a slot, and does not block later waiters.
func TestFairGateCancel(t *testing.T) {
	g := newFairGate(1)
	if err := g.acquire("holder", 1, nil); err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	errCh := make(chan error, 1)
	go func() { errCh <- g.acquire("victim", 1, cancel) }()
	waitForQueued(t, g, 1)
	close(cancel)
	if err := <-errCh; err != errQoSCanceled {
		t.Fatalf("canceled acquire returned %v, want errQoSCanceled", err)
	}
	g.release()
	// The slot must be immediately acquirable: the canceled waiter left no
	// phantom claim behind.
	done := make(chan error, 1)
	go func() { done <- g.acquire("next", 1, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire blocked after canceled waiter")
	}
	g.release()
}

// TestThrottleDeterministic drives qosState with an injected clock and
// sleeper: the pacing delays are pure token-bucket arithmetic.
func TestThrottleDeterministic(t *testing.T) {
	qs := newQoSState(map[string]TenantLimit{
		"capped": {BytesPerSec: 1000, BurstBytes: 1000},
	})
	now := time.Unix(2000, 0)
	var slept []time.Duration
	qs.now = func() time.Time { return now }
	qs.sleep = func(d time.Duration, cancel <-chan struct{}) bool {
		slept = append(slept, d)
		now = now.Add(d) // sleeping advances the virtual clock
		return true
	}

	capped := qs.tenant("capped")
	free := qs.tenant("free")
	for i := 0; i < 3; i++ {
		if err := qs.throttle(capped, 1000, nil); err != nil {
			t.Fatal(err)
		}
		if err := qs.throttle(free, 1<<20, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Frame 1 spends the burst; frames 2 and 3 each owe a full second.
	want := []time.Duration{time.Second, time.Second}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("throttle sleeps %v, want %v", slept, want)
	}
	snap := qs.snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot rows %d, want 2", len(snap))
	}
	if snap[0].Tenant != "capped" || snap[0].ThrottledMs != 2000 {
		t.Fatalf("capped row %+v, want 2000ms throttled", snap[0])
	}
	if snap[1].Tenant != "free" || snap[1].ThrottledMs != 0 {
		t.Fatalf("free row %+v, want 0ms throttled", snap[1])
	}
}

// TestFairPacerLeadBound pins the bounded-lead arithmetic: a tenant with no
// active peers is never paced, a leader is paced once it runs maxLead past
// the slowest active peer, and it resumes as the laggard advances.
func TestFairPacerLeadBound(t *testing.T) {
	p := newFairPacer(1000)
	now := time.Unix(3000, 0)

	// Alone, "a" charges freely no matter how far it runs.
	for i := 0; i < 5; i++ {
		if w := p.admit("a", 1, 10_000, now); w != 0 {
			t.Fatalf("solo admit %d paced %v", i, w)
		}
	}

	// "b" joins: it fast-forwards to the active floor (a's vtime), so "a"
	// holds no exploitable lead and "b" owes no catch-up debt.
	if w := p.admit("b", 1, 100, now); w != 0 {
		t.Fatalf("joining tenant paced %v", w)
	}
	// a: 50_000, b: 50_100. a may lead b by at most 1000 bytes, and the
	// lead is checked before each charge.
	if w := p.admit("a", 1, 600, now); w != 0 { // lead -100 -> a: 50_600
		t.Fatalf("in-bound admit paced %v", w)
	}
	if w := p.admit("a", 1, 600, now); w != 0 { // lead 500 -> a: 51_200
		t.Fatalf("in-bound admit paced %v", w)
	}
	if w := p.admit("a", 1, 600, now); w != pacerStep { // lead 1100 > 1000: paced
		t.Fatalf("over-lead admit returned %v, want step %v", w, pacerStep)
	}
	// The laggard is never paced, and its progress releases the leader.
	if w := p.admit("b", 1, 600, now); w != 0 { // b: 50_700
		t.Fatalf("laggard paced %v", w)
	}
	if w := p.admit("a", 1, 600, now); w != 0 { // lead 500 again
		t.Fatalf("released leader paced %v", w)
	}
	if p.stats() == 0 {
		t.Fatal("paced counter never incremented")
	}

	// Once "b" idles past the window it stops constraining "a".
	later := now.Add(time.Second)
	if w := p.admit("a", 1, 1_000_000, later); w != 0 {
		t.Fatalf("admit with expired peer paced %v", w)
	}
}

// TestFairPacerWeights: a weight-2 tenant's vtime advances at half the rate
// per byte, so it may serve twice the bytes before hitting the same lead.
func TestFairPacerWeights(t *testing.T) {
	p := newFairPacer(1000)
	now := time.Unix(4000, 0)
	p.admit("light", 1, 1, now) // floor at ~0
	served := 0
	for p.admit("heavy", 2, 100, now) == 0 {
		served += 100
		if served > 10_000 {
			t.Fatal("weight-2 lead never bound")
		}
	}
	// Lead bound 1000 vtime units = 2000 weighted bytes for weight 2.
	if served < 2000 || served > 2200 {
		t.Fatalf("weight-2 tenant served %d bytes before pacing, want ~2000", served)
	}
}

// TestPaceCancelAndClock drives qosState.pace with an injected clock: the
// paced tenant sleeps in steps until the laggard ages out, and a canceled
// pace returns errQoSCanceled.
func TestPaceCancelAndClock(t *testing.T) {
	qs := newQoSState(nil)
	qs.pacer = newFairPacer(1000)
	now := time.Unix(5000, 0)
	var slept time.Duration
	qs.now = func() time.Time { return now }
	qs.sleep = func(d time.Duration, cancel <-chan struct{}) bool {
		slept += d
		now = now.Add(d)
		return true
	}

	lag := qs.tenant("lag")
	lead := qs.tenant("lead")
	if err := qs.pace(lag, 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := qs.pace(lead, 5000, nil); err != nil { // joins at floor, charges past lead
		t.Fatal(err)
	}
	// Next charge exceeds the 1000-byte lead; with the laggard silent the
	// pacer steps until the laggard leaves the 100ms active window.
	if err := qs.pace(lead, 5000, nil); err != nil {
		t.Fatal(err)
	}
	if slept < 99*time.Millisecond || slept > 110*time.Millisecond {
		t.Fatalf("paced tenant slept %v, want ~the 100ms active window", slept)
	}
	snap := qs.snapshot()
	if snap[1].Tenant != "lead" || snap[1].PacedMs < 99 {
		t.Fatalf("lead row %+v, want ~100 paced_ms", snap[1])
	}
	if snap[0].Tenant != "lag" || snap[0].PacedMs != 0 {
		t.Fatalf("lag row %+v, want 0 paced_ms", snap[0])
	}

	// A canceled pace unblocks immediately.
	qs.sleep = func(d time.Duration, cancel <-chan struct{}) bool { return false }
	if err := qs.pace(lag, 100, nil); err != nil { // refresh laggard activity
		t.Fatal(err)
	}
	if err := qs.pace(lead, 1_000_000, nil); err != nil { // admitted, runs far ahead
		t.Fatal(err)
	}
	if err := qs.pace(lead, 1, nil); err != errQoSCanceled {
		t.Fatalf("canceled pace returned %v, want errQoSCanceled", err)
	}
}

// TestJainIndex pins the fairness metric at its two boundary shapes.
func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{5, 5, 5, 5}); j < 0.999 {
		t.Fatalf("equal shares scored %f, want 1", j)
	}
	if j := JainIndex([]float64{10, 0, 0, 0}); j < 0.249 || j > 0.251 {
		t.Fatalf("one-takes-all scored %f, want 0.25", j)
	}
	if j := JainIndex(nil); j != 1 {
		t.Fatalf("empty scored %f, want 1", j)
	}
}

// TestLogLimiter: a burst beyond the bucket is suppressed and counted, never
// dropped silently.
func TestLogLimiter(t *testing.T) {
	logged := 0
	l := newLogLimiter(5, func(string, ...any) { logged++ })
	for i := 0; i < 50; i++ {
		l.Logf("line %d", i)
	}
	sup := l.suppressed.Load()
	if int64(logged)+sup != 50 {
		t.Fatalf("logged %d + suppressed %d != 50", logged, sup)
	}
	// Burst is 2x rate = 10 tokens; a tight loop refills essentially nothing.
	if logged < 5 || logged > 15 {
		t.Fatalf("logged %d lines, want about the 10-token burst", logged)
	}
	if sup < 35 {
		t.Fatalf("suppressed %d, want the bulk of the storm", sup)
	}
}

// TestTokenBucketAllow drives the log limiter's bucket on injected time:
// the burst is exactly twice the rate, the refill is exactly rate tokens a
// second, and allow runs no debt — a storm of 1,000 refused calls still
// allows a line 1/rate seconds later, where take's balance would be 1,000
// tokens in the red.
func TestTokenBucketAllow(t *testing.T) {
	b := newLogLimiter(logLinesPerSec, nil).bucket
	t0 := b.last
	for i := range 2 * logLinesPerSec {
		if !b.allow(t0) {
			t.Fatalf("call %d refused inside the %d-line burst", i, 2*logLinesPerSec)
		}
	}
	if b.allow(t0) {
		t.Fatal("a call past the burst was allowed")
	}
	step := time.Second / logLinesPerSec
	if b.allow(t0.Add(step / 2)) {
		t.Fatal("half a refill interval allowed a call")
	}
	t1 := t0.Add(step)
	if !b.allow(t1) || b.allow(t1) {
		t.Fatal("one refill interval did not allow exactly one call")
	}
	for range 1000 {
		if b.allow(t1) {
			t.Fatal("a call was allowed with the bucket empty")
		}
	}
	if !b.allow(t1.Add(step)) {
		t.Fatal("1,000 refused calls left debt: the next refill interval allowed nothing")
	}

	debt := newTokenBucket(logLinesPerSec, 2*logLinesPerSec, t0)
	for range 2*logLinesPerSec + 1000 {
		debt.take(1, t0)
	}
	if debt.take(1, t0.Add(step)) == 0 {
		t.Fatal("take ran no debt through the same storm")
	}
}

// TestClientStringTablesBounded: 2,000 sessions, each with its own Name and
// Tenant and each computing one batch on a one-worker pool, leave the tenant
// rows, the fair gate's queues, the pacer's entries and the reconnect
// identities within their caps — names past the tenant cap bill to the
// default tenant — while each configured tenant keeps its own row and limits.
func TestClientStringTablesBounded(t *testing.T) {
	const sessions, concurrent = 2000, 16
	spec := workloads.ICSpec(160, 7)
	spec.BatchSize = 10 // 16 batches: one per rank
	spec.NumWorkers = 1
	limits := map[string]TenantLimit{
		"gold":   {Weight: 4, BatchesPerSec: 1e6, BurstBatches: 1e6},
		"silver": {Weight: 2, BytesPerSec: 1 << 40, BurstBytes: 1 << 40},
	}
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		Tenants: limits, Logf: func(string, ...any) {}})

	var wg sync.WaitGroup
	next := make(chan int)
	for range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				tenant := fmt.Sprintf("tenant-%d", i)
				if i%100 == 0 {
					tenant = []string{"gold", "silver"}[i/100%2]
				}
				c := NewClient(ClientConfig{Addr: srv.Addr(), Rank: i % concurrent, World: concurrent,
					Name: fmt.Sprintf("door-%d", i), Tenant: tenant})
				if _, err := c.Run(1, nil); err != nil {
					t.Errorf("session %d: %v", i, err)
				}
				c.Close()
			}
		}()
	}
	for i := range sessions {
		next <- i
	}
	close(next)
	wg.Wait()

	qs, gate := srv.qos, srv.plane.gate
	qs.mu.Lock()
	rows := len(qs.tenants)
	gold, silver := qs.tenants["gold"], qs.tenants["silver"]
	qs.mu.Unlock()
	gate.mu.Lock()
	queues := len(gate.queues)
	gate.mu.Unlock()
	qs.pacer.mu.Lock()
	entries := len(qs.pacer.entries)
	qs.pacer.mu.Unlock()
	srv.metrics.mu.Lock()
	identities := len(srv.metrics.opensByName)
	srv.metrics.mu.Unlock()

	// The unconfigured rows, the configured ones, and the default tenant.
	bound := maxTenantRows + len(limits) + 1
	if rows < maxTenantRows || rows > bound {
		t.Errorf("tenant rows %d, want the cap reached and held: %d..%d", rows, maxTenantRows, bound)
	}
	if queues > bound || entries > bound {
		t.Errorf("gate queues %d, pacer entries %d: want each at most %d", queues, entries, bound)
	}
	if queues == 0 {
		t.Error("no session ever queued at the fair gate: the test exercised nothing there")
	}
	if identities != maxIdentities {
		t.Errorf("reconnect identities %d, want the cap %d", identities, maxIdentities)
	}
	for name, tenant := range map[string]*tenantState{"gold": gold, "silver": silver} {
		if tenant == nil || tenant.limit != limits[name] {
			t.Errorf("configured tenant %s lost its row or its limits: %+v", name, tenant)
			continue
		}
		tenant.mu.Lock()
		if tenant.batchesSrv == 0 {
			t.Errorf("configured tenant %s was never served", name)
		}
		tenant.mu.Unlock()
	}
}
