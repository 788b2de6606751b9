package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"lotus/internal/core/trace"
	"lotus/internal/pipeline"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

// startServer is startTestServer with full Config control.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return startAdmitting(t, cfg, admitWait)
}

// startAdmitting is startServer with the admission wait set to wait (< 0:
// an over-limit handshake is turned away busy at once).
func startAdmitting(t *testing.T, cfg Config, wait time.Duration) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv := New(cfg)
	srv.admitWait = wait
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// holdSession dials and completes a handshake, holding one admitted session
// slot until the returned conn is closed.
func holdSession(t *testing.T, srv *Server, name string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, World: 1, Name: name}))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("%s handshake: %v", name, err)
	}
	if msg, err := DecodeMessage(payload); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(HelloAck); !ok {
		t.Fatalf("%s handshake: got %T, want HelloAck", name, msg)
	}
	conn.SetReadDeadline(time.Time{})
	return conn
}

// TestAdmissionBusyReply: with the session table full and waiting disabled,
// a new connection is answered with a clean Error frame carrying CodeBusy —
// the retryable overload signal — not a hang or a raw close.
func TestAdmissionBusyReply(t *testing.T) {
	spec := loopbackSpec()
	srv := startAdmitting(t, Config{Spec: spec, Mode: pipeline.Simulated,
		MaxSessions: 1}, -1)

	holder := holdSession(t, srv, "holder")
	defer holder.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, World: 1, Name: "turned-away"}))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("busy reply: %v", err)
	}
	msg, err := DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	em, ok := msg.(ErrorMsg)
	if !ok {
		t.Fatalf("busy reply was %T, want ErrorMsg", msg)
	}
	if em.Code != CodeBusy {
		t.Fatalf("busy reply code %d, want CodeBusy", em.Code)
	}
	snap := srv.Snapshot(time.Now())
	if snap.BusyRejections != 1 {
		t.Fatalf("busy_rejections %d, want 1", snap.BusyRejections)
	}
}

// TestClientRetriesBusy: a busy rejection flows through the client's
// existing jittered-backoff retry loop — unlike a fatal ServerError — and
// the session succeeds once the slot frees up.
func TestClientRetriesBusy(t *testing.T) {
	spec := loopbackSpec()
	srv := startAdmitting(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		MaxSessions: 1}, -1)

	holder := holdSession(t, srv, "holder")
	released := false
	var sleeps []time.Duration
	c := NewClient(ClientConfig{
		Addr: srv.Addr(), Name: "patient", Retries: 8,
		Sleep: func(d time.Duration) {
			sleeps = append(sleeps, d)
			if !released {
				released = true
				holder.Close() // the slot frees while the client backs off
			}
			time.Sleep(d)
		},
	})
	defer c.Close()
	stats, err := c.Run(1, nil)
	if err != nil {
		t.Fatalf("run after busy: %v", err)
	}
	if stats.Retries < 1 || len(sleeps) < 1 {
		t.Fatalf("busy was not retried: retries=%d sleeps=%v", stats.Retries, sleeps)
	}
	if stats.Batches != 10 {
		t.Fatalf("got %d batches after retry, want 10", stats.Batches)
	}
}

// TestConnectRetryingBusyIsJittered is the regression test for lotus-fetch's
// initial connect, which used to retry a busy server on its own un-jittered,
// uncapped `base << attempt` schedule: a fleet turned away together came back
// in synchronized waves. Through ConnectRetrying the first connect rides the
// client's seeded [d/2, d) backoff — two clients with different names wait
// different delays — and a busy-then-free server is reached without error.
func TestConnectRetryingBusyIsJittered(t *testing.T) {
	spec := loopbackSpec()
	srv := startAdmitting(t, Config{Spec: spec, Mode: pipeline.Simulated,
		MaxSessions: 1}, -1)
	const base = backoffBase

	// connectBehind dials while holder owns the only slot; the slot frees
	// during the client's first backoff sleep.
	connectBehind := func(name string, holder io.Closer) (*Client, time.Duration) {
		var sleeps []time.Duration
		c := NewClient(ClientConfig{
			Addr: srv.Addr(), Name: name, Retries: 8,
			Sleep: func(d time.Duration) {
				if sleeps = append(sleeps, d); len(sleeps) == 1 {
					holder.Close()
				}
				time.Sleep(d)
			},
		})
		if err := c.ConnectRetrying(); err != nil {
			t.Fatalf("%s: connect to a busy-then-free server: %v", name, err)
		}
		if _, ok := c.Ack(); !ok {
			t.Fatalf("%s: connected without a handshake ack", name)
		}
		if len(sleeps) == 0 {
			t.Fatalf("%s: busy refusal was not retried", name)
		}
		if sleeps[0] < base/2 || sleeps[0] >= base {
			t.Fatalf("%s: first busy-retry delay %v, want in [%v, %v)", name, sleeps[0], base/2, base)
		}
		return c, sleeps[0]
	}
	a, da := connectBehind("fleet-a", holdSession(t, srv, "holder"))
	b, db := connectBehind("fleet-b", a)
	defer b.Close()
	if da == db {
		t.Fatalf("clients with different names both waited %v: busy retries are in lockstep", da)
	}

	// A fatal refusal is still not retried.
	bad := NewClient(ClientConfig{Addr: srv.Addr(), Name: "bad", Rank: 3, World: 2,
		Sleep: func(time.Duration) { t.Error("fatal server error was retried") }})
	defer bad.Close()
	var se *ServerError
	if err := bad.ConnectRetrying(); !errors.As(err, &se) || se.Code == CodeBusy {
		t.Fatalf("rank >= world: got %v, want a fatal ServerError", err)
	}
}

// TestAdmissionQueueAdmits: a connection arriving while the table is full
// parks in the bounded admission queue and is admitted — not rejected — as
// soon as a slot frees within the wait budget.
func TestAdmissionQueueAdmits(t *testing.T) {
	spec := loopbackSpec()
	srv := startAdmitting(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		MaxSessions: 1}, 30*time.Second)

	holder := holdSession(t, srv, "holder")

	done := make(chan error, 1)
	go func() {
		c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "queued", Retries: 0})
		defer c.Close()
		stats, err := c.Run(1, nil)
		if err == nil && stats.Retries != 0 {
			err = fmt.Errorf("queued client needed %d retries", stats.Retries)
		}
		done <- err
	}()

	// Wait until the connection is parked in the admission queue, then free
	// the slot.
	deadline := time.Now().Add(10 * time.Second)
	for srv.admitWaiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second connection never queued")
		}
		time.Sleep(time.Millisecond)
	}
	holder.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued client: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued client never completed")
	}
	if snap := srv.Snapshot(time.Now()); snap.AdmitWaited != 1 || snap.BusyRejections != 0 {
		t.Fatalf("admit_queued=%d busy=%d, want 1 queued and 0 rejected",
			snap.AdmitWaited, snap.BusyRejections)
	}
}

// TestTracePIDRangesDisjoint streams two concurrent sessions and asserts the
// ring's pid ranges stay disjoint by construction: pipeline records (ops,
// preprocessed spans) sit on the plane's worker pids WorkerPID(0..n-1),
// and session records (waits, consumes) at sessionPIDBase + session id.
func TestTracePIDRangesDisjoint(t *testing.T) {
	spec := loopbackSpec() // 2 workers
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2})

	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := NewClient(ClientConfig{Addr: srv.Addr(), Rank: rank, World: 2,
				Name: fmt.Sprintf("pid-%d", rank)})
			defer c.Close()
			if _, err := c.Run(1, nil); err != nil {
				t.Errorf("client %d: %v", rank, err)
			}
		}(rank)
	}
	wg.Wait()

	workers, sessions := map[int]bool{}, map[int]bool{}
	for _, rec := range srv.ring.Snapshot() {
		switch rec.Kind {
		case trace.KindOp, trace.KindBatchPreprocessed:
			if rec.PID < pipeline.WorkerPID(0) || rec.PID >= pipeline.WorkerPID(spec.NumWorkers) {
				t.Fatalf("pipeline record on pid %d, outside WorkerPID(0..%d): %+v",
					rec.PID, spec.NumWorkers-1, rec)
			}
			workers[rec.PID] = true
		case trace.KindBatchWait, trace.KindBatchConsumed:
			if rec.PID <= sessionPIDBase {
				t.Fatalf("session record on pid %d, below the session range: %+v", rec.PID, rec)
			}
			sessions[rec.PID] = true
		}
	}
	if len(workers) == 0 || len(sessions) != 2 {
		t.Fatalf("trace shows %d worker pids and %d session pids, want >=1 and 2", len(workers), len(sessions))
	}
}

// TestSoak256Sessions is the scale soak: 256 concurrent loopback sessions
// (64 tenants, admission control armed well above the load) each stream
// their one-batch shard of a 256-batch epoch. Every frame must be
// byte-identical to a local ground-truth run, the shared epoch plan must
// have been built once — not 256+ times — and no goroutine may outlive the
// drain (the t.Cleanup leak check runs after the server closes).
func TestSoak256Sessions(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	const world = 256
	spec := workloads.ICSpec(2560, 7)
	spec.BatchSize = 10 // 256 batches: one per rank
	spec.NumWorkers = 1
	srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
		BatchCacheBytes: 128 << 20, MaxSessions: 512})

	expected := localEpochFrames(t, spec, 0)

	type result struct {
		rank    int
		batches int
		err     error
	}
	var mu sync.Mutex
	var mismatches []string
	results := make(chan result, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := NewClient(ClientConfig{Addr: srv.Addr(), Rank: rank, World: world,
				Name:   fmt.Sprintf("soak-%d", rank),
				Tenant: fmt.Sprintf("team-%d", rank%64), Retries: 8})
			defer c.Close()
			stats, err := c.Run(1, func(b *Batch, payload []byte) {
				if !bytes.Equal(payload, expected[b.GlobalID]) {
					mu.Lock()
					mismatches = append(mismatches,
						fmt.Sprintf("rank %d batch %d differs from ground truth", rank, b.GlobalID))
					mu.Unlock()
				}
			})
			batches := 0
			if stats != nil {
				batches = stats.Batches
			}
			results <- result{rank, batches, err}
		}(rank)
	}
	wg.Wait()
	close(results)

	total := 0
	for r := range results {
		if r.err != nil {
			t.Fatalf("rank %d: %v", r.rank, r.err)
		}
		total += r.batches
	}
	if total != 256 {
		t.Fatalf("sessions streamed %d batches total, want 256", total)
	}
	if len(mismatches) > 0 {
		t.Fatalf("%d byte-identity violations, first: %s", len(mismatches), mismatches[0])
	}

	snap := srv.Snapshot(time.Now())
	if snap.BusyRejections != 0 {
		t.Fatalf("soak under the session cap saw %d busy rejections", snap.BusyRejections)
	}
	if snap.PlanBuilds != 1 {
		t.Fatalf("epoch plan built %d times across 256 sessions, want 1 shared build", snap.PlanBuilds)
	}
	if len(snap.Tenants) != 64 {
		t.Fatalf("tenant rows %d, want 64", len(snap.Tenants))
	}
	if errors.Is(srv.Close(), nil) {
		// Close before the leak check (cleanup order also closes; idempotent).
	}
}
