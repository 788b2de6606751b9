package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"lotus/internal/clock"
	"lotus/internal/faultinject"
	"lotus/internal/native"
	"lotus/internal/pipeline"
	"lotus/internal/tensor"
	"lotus/internal/testutil"
	"lotus/internal/workloads"
)

func loopbackSpec() workloads.Spec {
	spec := workloads.ICSpec(640, 7)
	spec.BatchSize = 64 // 10 batches per epoch
	spec.NumWorkers = 2
	return spec
}

func startTestServer(t *testing.T, spec workloads.Spec, withHTTP bool) *Server {
	t.Helper()
	srv := New(Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2, Logf: t.Logf})
	httpAddr := ""
	if withHTTP {
		httpAddr = "127.0.0.1:0"
	}
	if err := srv.Start("127.0.0.1:0", httpAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// localEpochFrames runs the full epoch through a local simulated DataLoader
// and encodes every batch exactly as the server would — the ground truth for
// the byte-identical serving assertion. A simulated batch has no tensor tail
// to finish, so its frame is what the consumer gets.
func localEpochFrames(t *testing.T, spec workloads.Spec, epoch int) [][]byte {
	t.Helper()
	var out [][]byte
	for _, b := range localEpochBatches(t, spec, epoch, pipeline.Simulated, 0) {
		out = append(out, AppendBatch(nil, b))
	}
	return out
}

// localEpochBatches runs the full epoch through a local DataLoader in mode
// and returns every batch in wire form: what a consumer of the served epoch
// must be handed. In RealData that is the float32 tensor the plan as written
// makes, which for a plan with a tensor tail is not what crosses the wire
// (the frame carries pixels the client finishes), so real-mode tests compare
// delivered batches with sameBatch, not payloads.
func localEpochBatches(t *testing.T, spec workloads.Spec, epoch int, mode pipeline.Mode, materializeDim int) []*Batch {
	t.Helper()
	plan := BuildEpochPlan(spec.NumSamples, spec.BatchSize, spec.Shuffle, false, spec.Seed, epoch)
	batchPlan := make([][]int, len(plan))
	for i, pb := range plan {
		batchPlan[i] = pb.Indices
	}
	cfg := pipeline.Config{
		BatchSize:      spec.BatchSize,
		NumWorkers:     spec.NumWorkers,
		PrefetchFactor: spec.Prefetch,
		PinMemory:      spec.PinMemory,
		Seed:           spec.Seed,
		Epoch:          epoch,
		BatchPlan:      batchPlan,
		Mode:           mode,
		MaterializeDim: materializeDim,
		Engine:         native.NewEngine(spec.Arch, native.DefaultCPU()),
	}
	ds := spec.Dataset(nil)
	out := make([]*Batch, len(plan))
	sim := clock.NewSim()
	sim.Run("local", func(p clock.Proc) {
		dl := pipeline.NewDataLoader(sim, ds, cfg)
		it := dl.Start(p)
		for i := 0; ; i++ {
			b, ok := it.Next(p)
			if !ok {
				if err := it.Err(); err != nil {
					t.Errorf("local loader: %v", err)
				}
				return
			}
			out[i] = batchToWire(epoch, i, b).Clone()
		}
	})
	return out
}

// sameBatch reports whether a delivered batch is want as its consumer sees
// it: epoch, id, indices, labels, dtype, shape and tensor bits.
func sameBatch(got, want *Batch) bool {
	return got.Epoch == want.Epoch && got.GlobalID == want.GlobalID &&
		slices.Equal(got.Indices, want.Indices) && slices.Equal(got.Labels, want.Labels) &&
		got.Dtype == want.Dtype && slices.Equal(got.Shape, want.Shape) &&
		(got.U8 == nil) == (want.U8 == nil) && bytes.Equal(got.U8, want.U8) &&
		(got.F32 == nil) == (want.F32 == nil) &&
		slices.EqualFunc(got.F32, want.F32, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
}

// fetchOnce fetches c's rank/world shard of one epoch once: one step of Run
// without its retries, crediting st when non-nil.
func fetchOnce(c *Client, epoch int, onBatch func(*Batch, []byte), st *FetchStats) error {
	if err := c.Connect(); err != nil {
		return err
	}
	_, err := c.fetch(epoch, c.shardIDs(), false, onBatch, st)
	return err
}

// planIDs is 0..n-1: a request for a whole n-batch epoch plan.
func planIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestLoopbackTwoClientsTwoEpochs is the end-to-end acceptance test: two
// concurrent sessions shard two epochs, their shards are disjoint and
// exhaustive, every streamed frame is byte-identical to a local DataLoader
// run over the full plan, and /healthz, /metrics, and /trace serve live data
// mid-stream.
func TestLoopbackTwoClientsTwoEpochs(t *testing.T) {
	// Registered before startTestServer's Close cleanup so it runs after the
	// server has shut down (t.Cleanup is LIFO).
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, FramesInUse))
	spec := loopbackSpec()
	srv := startTestServer(t, spec, true)
	const world, epochs = 2, 2

	expected := make([][][]byte, epochs) // [epoch][globalID]payload
	for e := 0; e < epochs; e++ {
		expected[e] = localEpochFrames(t, spec, e)
	}
	planLen := len(expected[0])

	type received struct {
		epoch, globalID int
		payload         []byte
	}
	got := make([][]received, world)
	stats := make([]*FetchStats, world)
	clientErr := make([]error, world)
	// The first batch's callback holds its client until the mid-run checks
	// are done, so they see a session that is still streaming.
	firstBatch, midRun := make(chan struct{}), make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := NewClient(ClientConfig{
				Addr: srv.Addr(), Rank: rank, World: world,
				Name: fmt.Sprintf("loopback-%d", rank),
			})
			defer c.Close()
			stats[rank], clientErr[rank] = c.Run(epochs, func(b *Batch, payload []byte) {
				once.Do(func() { close(firstBatch); <-midRun })
				got[rank] = append(got[rank], received{b.Epoch, b.GlobalID, append([]byte(nil), payload...)})
			})
		}(rank)
	}

	// Live observability while batches are in flight: the clients above are
	// still connected (they Close only after Run returns), so the sidecar
	// must report active sessions, sent batches, and trace events.
	select {
	case <-firstBatch:
	case <-time.After(30 * time.Second):
		t.Fatal("no batch arrived within 30s")
	}
	base := "http://" + srv.HTTPAddr()
	var snap MetricsSnapshot
	func() {
		defer close(midRun)
		var health struct {
			Status string `json:"status"`
		}
		getJSON(t, base+"/healthz", &health)
		if health.Status != "ok" {
			t.Fatalf("healthz mid-run: %q", health.Status)
		}
		getJSON(t, base+"/metrics", &snap)
		if snap.SessionsActive < 1 || snap.BatchesSent < 1 {
			t.Fatalf("metrics mid-run not live: %+v", snap)
		}
		var chrome struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		getJSON(t, base+"/trace?granularity=fine", &chrome)
		if len(chrome.TraceEvents) == 0 {
			t.Fatal("trace mid-run has no events")
		}
		// The sidecar serves Go's profiles too, with nothing to switch on.
		resp, err := http.Get(base + "/debug/pprof/")
		if err != nil {
			t.Fatalf("GET /debug/pprof/: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/pprof/: %d, want 200", resp.StatusCode)
		}
	}()

	wg.Wait()
	for rank := 0; rank < world; rank++ {
		if clientErr[rank] != nil {
			t.Fatalf("client %d: %v", rank, clientErr[rank])
		}
		if stats[rank].Epochs != epochs {
			t.Fatalf("client %d completed %d epochs, want %d", rank, stats[rank].Epochs, epochs)
		}
		if stats[rank].Retries != 0 {
			t.Fatalf("client %d needed %d retries on loopback", rank, stats[rank].Retries)
		}
	}

	// Shards must be disjoint and exhaustive per epoch, and every frame
	// byte-identical to the local run.
	for e := 0; e < epochs; e++ {
		claimed := make(map[int]int)
		for rank := 0; rank < world; rank++ {
			count := 0
			for _, rec := range got[rank] {
				if rec.epoch != e {
					continue
				}
				count++
				if prev, dup := claimed[rec.globalID]; dup {
					t.Fatalf("epoch %d batch %d streamed to ranks %d and %d", e, rec.globalID, prev, rank)
				}
				claimed[rec.globalID] = rank
				if rec.globalID < 0 || rec.globalID >= planLen {
					t.Fatalf("epoch %d: global id %d out of plan", e, rec.globalID)
				}
				if !bytes.Equal(rec.payload, expected[e][rec.globalID]) {
					t.Fatalf("epoch %d batch %d: served frame differs from local DataLoader", e, rec.globalID)
				}
			}
			if want := ShardSize(planLen, rank, world); count != want {
				t.Fatalf("epoch %d rank %d got %d batches, want %d", e, rank, count, want)
			}
		}
		if len(claimed) != planLen {
			t.Fatalf("epoch %d: clients covered %d of %d batches", e, len(claimed), planLen)
		}
	}

	getJSON(t, base+"/metrics", &snap)
	if want := int64(world * epochs); snap.EpochsServed != want {
		t.Fatalf("epochs_served %d, want %d", snap.EpochsServed, want)
	}

	// Graceful drain: both clients said Bye, so the server empties quickly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}

// TestMalformedFramesGetErrorNotPanic throws protocol garbage at a live
// server: every bad connection must be answered with an Error frame and a
// close — never a panic — and the server must keep serving well-formed
// clients afterwards.
func TestMalformedFramesGetErrorNotPanic(t *testing.T) {
	spec := loopbackSpec()
	srv := startTestServer(t, spec, false)

	expectErrorFrame := func(conn net.Conn, context string) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		payload, err := ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("%s: reading server reply: %v", context, err)
		}
		msg, err := DecodeMessage(payload)
		if err != nil {
			t.Fatalf("%s: decoding server reply: %v", context, err)
		}
		if _, ok := msg.(ErrorMsg); !ok {
			t.Fatalf("%s: server replied %T, want ErrorMsg", context, msg)
		}
		// The server closes after an Error; the next read must be EOF-ish,
		// not more data.
		if _, err := ReadFrame(conn, 0); err == nil {
			t.Fatalf("%s: server kept talking after Error", context)
		}
	}

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	// Unknown message type as the handshake.
	conn := dial()
	WriteFrame(conn, []byte{0xfe, 1, 2, 3})
	expectErrorFrame(conn, "unknown type")
	conn.Close()

	// Valid handshake, then a truncated ShardReq.
	conn = dial()
	WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, Rank: 0, World: 1}))
	if _, err := ReadFrame(conn, 0); err != nil {
		t.Fatalf("handshake ack: %v", err)
	}
	WriteFrame(conn, []byte{byte(MsgShardReq), 0x00})
	expectErrorFrame(conn, "truncated ShardReq")
	conn.Close()

	// Valid handshake, then a ShardReq naming no batch.
	conn = dial()
	WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, Rank: 0, World: 1}))
	if _, err := ReadFrame(conn, 0); err != nil {
		t.Fatalf("handshake ack: %v", err)
	}
	WriteFrame(conn, EncodeShardReq(ShardReq{Epoch: 0}))
	expectErrorFrame(conn, "empty ShardReq")
	conn.Close()

	// A Hello whose name is not printable ASCII is refused before admission.
	conn = dial()
	WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, Rank: 0, World: 1, Name: "bell\a"}))
	expectErrorFrame(conn, "unprintable name")
	conn.Close()

	// Oversized frame header straight away.
	conn = dial()
	conn.Write([]byte{0xff, 0xff, 0xff, 0xff})
	expectErrorFrame(conn, "oversized frame")
	conn.Close()

	// Wrong protocol version.
	conn = dial()
	WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion + 9, Rank: 0, World: 1}))
	expectErrorFrame(conn, "bad version")
	conn.Close()

	// The server must still be fully functional.
	c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "after-garbage"})
	defer c.Close()
	stats, err := c.Run(1, nil)
	if err != nil {
		t.Fatalf("clean client after garbage: %v", err)
	}
	if stats.Batches != 10 {
		t.Fatalf("clean client got %d batches, want 10", stats.Batches)
	}
}

// TestRequestFrameBound: a connection that sends only a length prefix — one
// byte over the largest request a client may legitimately send, then the
// largest frame the wire allows — gets an Error frame and an immediate
// close, and the server allocates nothing for the claimed payload. The
// prefix arrives before any Hello, so admission control cannot bound it;
// unbounded, each such handshake made the server allocate what the prefix
// claimed (up to 64 MiB) and wait helloTimeout (10 s) for the bytes.
func TestRequestFrameBound(t *testing.T) {
	srv := startTestServer(t, loopbackSpec(), false)
	bound := 143 // a Hello with both strings at 64 bytes
	if got := maxRequestFrame(srv.planLen); got != bound {
		t.Fatalf("request bound for a %d-batch plan: %d, want %d", srv.planLen, got, bound)
	}
	if got := maxRequestFrame(1 << 16); got != 10+4<<16 {
		t.Fatalf("request bound for a 65536-batch plan: %d, want the full ShardReq %d", got, 10+4<<16)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, claim := range []uint32{uint32(bound) + 1, DefaultMaxFrame} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], claim)
		conn.Write(hdr[:])
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		payload, err := ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("claim %d: no Error frame within 2s: %v", claim, err)
		}
		if msg, err := DecodeMessage(payload); err != nil {
			t.Fatalf("claim %d: %v", claim, err)
		} else if _, ok := msg.(ErrorMsg); !ok {
			t.Fatalf("claim %d: server replied %T, want ErrorMsg", claim, msg)
		}
		if _, err := ReadFrame(conn, 0); err != io.EOF {
			t.Fatalf("claim %d: connection not closed after the Error frame: %v", claim, err)
		}
		conn.Close()
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing two oversized prefixes allocated %d bytes", grew)
	}
}

// TestClientRetriesTransientFailures fronts the client with a flaky fake
// server that drops the connection mid-epoch on the first attempt. The
// client must back off, reconnect, request only the batch it has not been
// delivered, and end with exactly one epoch's worth of batches counted.
func TestClientRetriesTransientFailures(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	mkBatch := func(gid int) []byte {
		return AppendBatch(nil, &Batch{Epoch: 0, GlobalID: gid, Indices: []int{gid}, Labels: []int{gid},
			Dtype: tensor.Uint8, Shape: []int{1, 8}})
	}

	go func() {
		for attempt := 1; ; attempt++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			func() {
				defer conn.Close()
				if _, err := ReadFrame(conn, 0); err != nil { // Hello
					return
				}
				WriteFrame(conn, EncodeHelloAck(HelloAck{Version: ProtocolVersion, DatasetLen: 2, BatchSize: 1, PlanBatches: 2}))
				payload, err := ReadFrame(conn, 0) // ShardReq{0, [0 1]}, then ShardReq{0, [1]}
				if err != nil {
					return
				}
				msg, _ := DecodeMessage(payload)
				req, _ := msg.(ShardReq)
				for _, id := range req.IDs {
					WriteFrame(conn, mkBatch(id))
					if attempt == 1 {
						return // abrupt mid-epoch disconnect
					}
				}
				ReadFrame(conn, 0) // Bye or close
			}()
		}
	}()

	var sleeps []time.Duration
	c := NewClient(ClientConfig{
		Addr: ln.Addr().String(), Retries: 3,
		sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	defer c.Close()
	var got []int
	stats, err := c.Run(1, func(b *Batch, _ []byte) { got = append(got, b.GlobalID) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Retries != 1 {
		t.Fatalf("retries %d, want 1", stats.Retries)
	}
	// The first attempt's delivered batch is neither fetched nor counted twice.
	if stats.Batches != 2 || !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("batches %d delivered as %v, want 2 as [0 1]", stats.Batches, got)
	}
	// One jittered backoff sleep in [base/2, base).
	if len(sleeps) != 1 || sleeps[0] < backoffBase/2 || sleeps[0] >= backoffBase {
		t.Fatalf("backoff sleeps %v, want one sleep in [%v, %v)", sleeps, backoffBase/2, backoffBase)
	}
}

// TestRunDeliversEachBatchOnce: a plain session whose stream the server
// drops, truncates or corrupts mid-epoch resumes at the first batch it has
// not delivered, so its callback sees each (epoch, id) of the shard exactly
// once and FetchStats counts each once.
func TestRunDeliversEachBatchOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults faultinject.Spec
	}{
		{"drop", faultinject.Spec{DropFrame: 4}},
		{"truncate", faultinject.Spec{TruncateFrame: 4}},
		{"corrupt", faultinject.Spec{CorruptFrame: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const epochs = 2
			spec := loopbackSpec() // 10 batches per epoch
			srv := startServer(t, Config{Spec: spec, Mode: pipeline.Simulated, Prefetch: 2,
				Faults: faultinject.New(tc.faults)})
			c := NewClient(ClientConfig{Addr: srv.Addr(), Name: "once-" + tc.name, sleep: func(time.Duration) {}})
			defer c.Close()
			seen := make(map[[2]int]int)
			st, err := c.Run(epochs, func(b *Batch, _ []byte) { seen[[2]int{b.Epoch, b.GlobalID}]++ })
			if err != nil {
				t.Fatal(err)
			}
			want := epochs * 10
			if st.Retries != 1 || st.Batches != want || len(seen) != want {
				t.Fatalf("%d retries, %d batches credited, %d distinct delivered; want 1, %d and %d",
					st.Retries, st.Batches, len(seen), want, want)
			}
			for key, n := range seen {
				if n != 1 {
					t.Fatalf("batch %d of epoch %d delivered %d times", key[1], key[0], n)
				}
			}
		})
	}
}

// TestServerErrorIsFatal: a deliberate server-side refusal must not be
// retried.
func TestServerErrorIsFatal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := ReadFrame(conn, 0); err != nil {
					return
				}
				WriteFrame(conn, EncodeHelloAck(HelloAck{Version: ProtocolVersion, PlanBatches: 2}))
				if _, err := ReadFrame(conn, 0); err != nil {
					return
				}
				WriteFrame(conn, EncodeError(ErrorMsg{Message: "nope"}))
			}()
		}
	}()

	var sleeps []time.Duration
	c := NewClient(ClientConfig{
		Addr:  ln.Addr().String(),
		sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	defer c.Close()
	stats, err := c.Run(1, nil)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("error %v, want ServerError", err)
	}
	if stats.Retries != 0 || len(sleeps) != 0 {
		t.Fatalf("fatal error was retried: retries=%d sleeps=%v", stats.Retries, sleeps)
	}
}

// TestBackoffSchedule: each attempt's sleep lands in the jittered window
// [cap/2, cap) of the exponential schedule 50, 100, ..., 1600, 2000, 2000 ms.
func TestBackoffSchedule(t *testing.T) {
	c := NewClient(ClientConfig{})
	want := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000}
	for i, w := range want {
		lo, hi := w*time.Millisecond/2, w*time.Millisecond
		if got := c.backoff(i + 1); got < lo || got >= hi {
			t.Fatalf("backoff(%d) = %v, want in [%v, %v)", i+1, got, lo, hi)
		}
	}
}

// TestBackoffSchedulesDiverge pins the lockstep-retry fix: two clients with
// different identities must not compute the same backoff schedule, or a
// server restart makes the whole fleet reconnect in synchronized waves. The
// same identity must still be reproducible run to run.
func TestBackoffSchedulesDiverge(t *testing.T) {
	mk := func(name string, rank int) []time.Duration {
		c := NewClient(ClientConfig{Name: name, Rank: rank, World: 4})
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = c.backoff(i + 1)
		}
		return out
	}
	a, b := mk("trainer-0", 0), mk("trainer-1", 1)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("two distinct clients computed identical schedules %v — lockstep retries", a)
	}
	// Determinism: the same identity replays the same schedule.
	a2 := mk("trainer-0", 0)
	for i := range a {
		if a[i] != a2[i] {
			t.Fatalf("same identity diverged between runs: %v vs %v", a, a2)
		}
	}
}

// TestShutdownForcesIdleSessions: a client that fetched an epoch and stays
// connected cannot hold a graceful drain open — it sits in a read only it
// could end, so Shutdown disconnects it at once and returns nil long before
// the budget, with all connections gone.
func TestShutdownForcesIdleSessions(t *testing.T) {
	t.Cleanup(testutil.CheckGoroutines(t))
	t.Cleanup(testutil.CheckFrames(t, FramesInUse))
	spec := loopbackSpec()
	srv := startTestServer(t, spec, false)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	WriteFrame(conn, EncodeHello(Hello{Version: ProtocolVersion, Rank: 0, World: 1}))
	if _, err := ReadFrame(conn, 0); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	WriteFrame(conn, EncodeShardReq(ShardReq{Epoch: 0, IDs: planIDs(srv.planLen)}))
	for range srv.planLen {
		if _, err := ReadFrame(conn, 0); err != nil {
			t.Fatalf("epoch 0: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain with one idle client returned %v, want nil", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("drain with one idle client took %v of a 5s budget", took)
	}
	// The session's connection is closed.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil && !errors.Is(err, io.EOF) {
		// reset or EOF both mean closed; a deadline error means it hung open
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			t.Fatal("connection still open after drain")
		}
	}
	// New connections are refused.
	if c2, err := net.Dial("tcp", srv.Addr()); err == nil {
		c2.Close()
		t.Fatal("listener still accepting after drain")
	}
}
