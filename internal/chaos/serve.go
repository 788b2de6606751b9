package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"unsafe"

	"lotus/internal/cluster"
	"lotus/internal/faultinject"
	"lotus/internal/pipeline"
	"lotus/internal/serve"
	"lotus/internal/workloads"
)

// row declares one served cell. The runner owns everything else: the ground
// truth, booting and tearing down servers, delivery through a sink, and the
// checks every served row gets. A row adds only what is its point — a check
// of the statistics that show the feature under test did its job.
type row struct {
	class    string
	workload workloads.Kind // IC (the zero value) or ICA
	samples  int            // 0: chaosSpec's default
	emulate  bool           // the Simulated pipeline paced on the wall clock; false: RealData

	// Server features, the same on every node.
	batchCache, sampleCache int64
	disk                    bool
	tenants                 map[string]serve.TenantLimit

	nodes   int              // 0 or 1: one server; 3: a cluster
	faults  faultinject.Spec // on the victim, during the first life
	kill    bool             // the victim's server dies at its first failed fetch
	lives   int              // 2: a second life, without faults, on the first's disk directories
	between func(e *env)     // the step between two lives, every server down

	client  client // nil: one session
	epochs  int    // 0: one
	wantErr bool   // the first life ends in a clean Error frame, not in identity
	// before runs ahead of each routed epoch, or once ahead of the sessions.
	before func(e *env, epoch int)
	// check runs after the last life's client, while its servers are up, if
	// the row has not failed already.
	check func(e *env)
}

// A client streams one life of a row from e.srvs into sinks it takes from
// e.newSink, reporting how each stream ended through e.outcome.
type client func(e *env)

// env is one served row in flight: what its client and hooks see.
type env struct {
	row    *row
	res    *Result
	spec   workloads.Spec
	oracle [][]*serve.Batch // [epoch][global batch ID]: the batches a local run makes
	inj    *faultinject.Injector
	dirs   []string // one disk directory per node
	life   int      // 1, or 2 on the first life's directories
	victim int      // index of the node with the largest ring shard

	srvs    []*serve.Server
	members []cluster.Node
	router  *cluster.Client       // routed rows
	stats   []*cluster.EpochStats // routed rows: one per completed epoch

	mu    sync.Mutex // clients report from their own goroutines
	sinks []*sink
}

// chaosCacheBytes is the cache budget of the cache-enabled rows: large
// enough that nothing is evicted, so every isolation failure is a
// correctness bug rather than an eviction artifact.
const chaosCacheBytes = 64 << 20

// chaosMaterializeDim caps real-mode synthesis so RealData rows stay fast.
const chaosMaterializeDim = 48

// servedCell binds a served row to the runner.
func servedCell(seed int64, rw row) cell {
	if rw.workload == "" {
		rw.workload = workloads.IC
	}
	return cell{class: rw.class, workload: string(rw.workload), run: func(res *Result) {
		e := &env{row: &rw, res: res, spec: chaosSpec(rw.workload, rw.samples, seed)}
		for epoch := range max(rw.epochs, 1) {
			batches, err := serve.LocalBatches(e.spec, rw.mode(), chaosMaterializeDim, epoch, nil)
			if err != nil {
				e.fail("ground truth epoch %d: %v", epoch, err)
				return
			}
			e.oracle = append(e.oracle, batches)
		}
		nodes := max(rw.nodes, 1)
		e.victim = victimOf(nodes, len(e.oracle[0]))
		faults := rw.faults
		faults.Seed = seed
		e.inj = faultinject.New(faults)
		for i := 0; rw.disk && i < nodes; i++ {
			dir, err := os.MkdirTemp("", "lotus-chaos-disk-*")
			if err != nil {
				e.fail("disk directory: %v", err)
				return
			}
			defer os.RemoveAll(dir)
			e.dirs = append(e.dirs, dir)
		}
		for e.life = 1; e.life <= max(rw.lives, 1); e.life++ {
			if e.life > 1 && rw.between != nil {
				rw.between(e)
			}
			e.live(nodes)
		}
	}}
}

// live boots one life's servers, runs the row's client against them, checks
// every sink, and tears it all down again.
func (e *env) live(nodes int) {
	defer func() {
		if e.router != nil {
			e.router.Close()
		}
		for _, srv := range e.srvs {
			srv.Close()
		}
		e.srvs, e.members, e.router, e.stats, e.sinks = nil, nil, nil, nil, nil
	}()
	for i := range nodes {
		srv := serve.New(e.nodeConfig(i))
		if err := srv.Start("127.0.0.1:0", ""); err != nil {
			e.fail("node%d: %v", i, err)
			return
		}
		e.srvs = append(e.srvs, srv)
		e.members = append(e.members, cluster.Node{ID: nodeID(i), Addr: srv.Addr()})
	}
	run := e.row.client
	if run == nil {
		run = sessions(nil)
	}
	run(e)
	for _, s := range e.sinks {
		s.verify(e, !e.wantErr())
	}
	if e.wantErr() { // a clean Error ends the session, never the server
		c := serve.NewClient(serve.ClientConfig{Addr: e.srvs[e.victim].Addr(), Name: "chaos-after-error"})
		if err := c.Connect(); err != nil {
			e.fail("server down after a clean Error: %v", err)
		}
		c.Close()
	}
	if e.life == max(e.row.lives, 1) {
		e.res.Injected += e.inj.Counts().Total()
		if e.row.check != nil && e.res.OK() {
			e.row.check(e)
		}
	}
}

// nodeConfig is node i's server configuration in this life.
func (e *env) nodeConfig(i int) serve.Config {
	cfg := serve.Config{Spec: e.spec, Mode: e.row.mode(), EmulateTime: e.row.emulate,
		MaterializeDim: chaosMaterializeDim, Prefetch: 2,
		BatchCacheBytes: e.row.batchCache, SampleCacheBytes: e.row.sampleCache,
		Tenants: e.row.tenants}
	if e.dirs != nil {
		cfg.DiskCacheDir = e.dirs[i]
	}
	if i == e.victim && e.life == 1 {
		cfg.Faults = e.inj
	}
	return cfg
}

// mode is the pipeline mode the row serves and its ground truth runs.
func (rw *row) mode() pipeline.Mode {
	if rw.emulate {
		return pipeline.Simulated
	}
	return pipeline.RealData
}

func (e *env) wantErr() bool { return e.row.wantErr && e.life == 1 }

func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.res.Failures = append(e.res.Failures, fmt.Sprintf(format, args...))
}

func (e *env) note(format string, args ...any) {
	e.res.Notes = append(e.res.Notes, fmt.Sprintf(format, args...))
}

// want fails the row when a statistic is not what the row's point needs.
func want[T comparable](e *env, what string, got, want T) {
	if got != want {
		e.fail("%s %v, want %v", what, got, want)
	}
}

// outcome checks how one stream of the life ended.
func (e *env) outcome(who string, err error) {
	var se *serve.ServerError
	switch {
	case !e.wantErr() && err != nil:
		e.fail("%s: %v", who, err)
	case e.wantErr() && err == nil:
		e.fail("%s completed; want a clean Error frame", who)
	case e.wantErr() && !errors.As(err, &se):
		e.fail("%s: want a clean Error frame, got %v", who, err)
	}
}

// sessions is the client of k concurrent sessions per tenant (nil: one
// session) on the row's one server. A retried epoch resumes at its first
// undelivered batch, so each sink holds its session to exactly-once delivery
// as the routed sink holds the router.
func sessions(tenants map[string]int) client {
	return func(e *env) {
		if e.row.before != nil {
			e.row.before(e, 0)
		}
		if tenants == nil {
			tenants = map[string]int{"": 1}
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var retries, batches int
		for tenant, k := range tenants {
			for i := range k {
				s := e.newSink(fmt.Sprintf("session %s%d", tenant, i))
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := serve.NewClient(serve.ClientConfig{Addr: e.srvs[0].Addr(), Name: "chaos-" + e.row.class,
						Tenant: tenant})
					defer c.Close()
					st, err := c.Run(len(e.oracle), s.deliver)
					e.outcome(s.name, err)
					mu.Lock()
					defer mu.Unlock()
					retries += st.Retries
					batches += st.Batches
				}()
			}
		}
		wg.Wait()
		if e.life == 1 && e.inj.Counts().WireFaults > 0 && retries == 0 {
			e.fail("a wire fault fired but no session retried")
		}
		e.note("retries=%d batches=%d", retries, batches)
	}
}

// routed is the client of one cluster.Client over every node, configured by
// cfg (nil: the zero Config). Every epoch must route around a killed victim
// and only then, and the exactly-once filter may drop only hedge losers.
func routed(cfg func(e *env) cluster.Config) client {
	return func(e *env) {
		var c cluster.Config
		if cfg != nil {
			c = cfg(e)
		}
		c.Nodes, c.Name = e.members, "chaos-"+e.row.class
		if e.row.kill {
			var once sync.Once
			c.OnFetchError = func(node string, _, _ int, _ error) {
				if node == e.members[e.victim].ID {
					once.Do(func() { e.srvs[e.victim].Close() })
				}
			}
		}
		var err error
		if e.router, err = cluster.New(c); err != nil {
			e.fail("cluster client: %v", err)
			return
		}
		s := e.newSink("router")
		var rerouted, rounds int
		for epoch := range e.oracle {
			if e.row.before != nil {
				e.row.before(e, epoch)
			}
			st, err := e.router.RunEpoch(epoch, func(_ string, b *serve.Batch, payload []byte) { s.deliver(b, payload) })
			e.outcome(fmt.Sprintf("routed epoch %d", epoch), err)
			if err != nil {
				return
			}
			e.stats = append(e.stats, st)
			if e.row.kill && (st.NodeFailures != 1 || st.Rerouted == 0) || !e.row.kill && st.NodeFailures+st.Rerouted != 0 {
				e.fail("epoch %d: node failures %d, rerouted %d; victim killed: %v", epoch, st.NodeFailures, st.Rerouted, e.row.kill)
			}
			if st.Ignored != st.HedgeWasted {
				e.fail("epoch %d: %d frames hit the exactly-once filter, %d of them hedge losers", epoch, st.Ignored, st.HedgeWasted)
			}
			rerouted += st.Rerouted
			rounds += st.Rounds
		}
		e.note("rerouted=%d rounds=%d", rerouted, rounds)
	}
}

// sink is one stream's record of what it was delivered. Each batch is
// compared with the oracle as it arrives — as its consumer sees it: tensor,
// indices, labels — and then overwritten, the frame bytes and the tensor
// alike: a batch and its payload are lent only until the callback returns,
// so a library that reads either later reads the pattern, and the row fails
// identity.
type sink struct {
	name   string
	oracle [][]*serve.Batch
	mu     sync.Mutex // routed clients deliver from one goroutine per node
	epochs []delivered
	stray  int // batches of epochs never requested
}

type delivered struct {
	seen  map[int]bool
	dups  int
	wrong []string
}

func (e *env) newSink(name string) *sink {
	s := &sink{name: name, oracle: e.oracle, epochs: make([]delivered, len(e.oracle))}
	for epoch := range s.epochs {
		s.epochs[epoch].seen = map[int]bool{}
	}
	e.mu.Lock()
	e.sinks = append(e.sinks, s)
	e.mu.Unlock()
	return s
}

func (s *sink) deliver(b *serve.Batch, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		for i := range payload {
			payload[i] = 0xA5
		}
		for i := range b.U8 {
			b.U8[i] = 0xA5
		}
		for i := range b.F32 {
			b.F32[i] = math.Float32frombits(0xA5A5A5A5)
		}
	}()
	if b.Epoch < 0 || b.Epoch >= len(s.oracle) {
		s.stray++
		return
	}
	d, want := &s.epochs[b.Epoch], s.oracle[b.Epoch]
	switch id := b.GlobalID; {
	case id < 0 || id >= len(want):
		d.wrong = append(d.wrong, fmt.Sprintf("batch %d is not in the plan", id))
	case d.seen[id]:
		d.dups++
	default:
		d.seen[id] = true
		if what := differs(b, want[id]); what != "" {
			d.wrong = append(d.wrong, fmt.Sprintf("batch %d not byte-identical to ground truth: %s", id, what))
		}
	}
}

// differs names the first part of a delivered batch that is not the
// oracle's, as the consumer sees it; "" when none is.
func differs(got, want *serve.Batch) string {
	switch {
	case !slices.Equal(got.Indices, want.Indices):
		return "indices"
	case !slices.Equal(got.Labels, want.Labels):
		return "labels"
	case got.Dtype != want.Dtype || !slices.Equal(got.Shape, want.Shape):
		return fmt.Sprintf("%s %v, want %s %v", got.Dtype, got.Shape, want.Dtype, want.Shape)
	case !bytes.Equal(got.U8, want.U8) || (got.U8 == nil) != (want.U8 == nil) || (got.F32 == nil) != (want.F32 == nil) ||
		!bytes.Equal(f32Bytes(got.F32), f32Bytes(want.F32)):
		return "tensor"
	}
	return ""
}

// f32Bytes is v's memory as bytes: two tensors compare bit for bit (NaN
// payloads and -0 told apart) in one bulk pass, not one float at a time.
func f32Bytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// verify reports the sink's record: byte identity and exactly-once delivery,
// and with complete, every batch of every epoch.
func (s *sink) verify(e *env, complete bool) {
	for epoch, d := range s.epochs {
		for _, w := range d.wrong {
			e.fail("%s epoch %d: %s", s.name, epoch, w)
		}
		if d.dups > 0 {
			e.fail("%s epoch %d: %d duplicate deliveries", s.name, epoch, d.dups)
		}
		if complete && len(d.seen) != len(s.oracle[epoch]) {
			e.fail("%s epoch %d: delivered %d of %d batches", s.name, epoch, len(d.seen), len(s.oracle[epoch]))
		}
	}
	if s.stray > 0 {
		e.fail("%s: %d batches of epochs it never requested", s.name, s.stray)
	}
}

// victimOf returns the node with the largest ring shard of a planLen-batch
// epoch, so a fault there strands the most work.
func victimOf(nodes, planLen int) int {
	ring := cluster.NewRing()
	alive := map[string]bool{}
	for i := range nodes {
		ring.Add(nodeID(i))
		alive[nodeID(i)] = true
	}
	ids := make([]int, planLen)
	for i := range ids {
		ids[i] = i
	}
	asn := ring.Assign(ids, alive)
	victim := 0
	for i := 1; i < nodes; i++ {
		if len(asn.ByNode[nodeID(i)]) > len(asn.ByNode[nodeID(victim)]) {
			victim = i
		}
	}
	return victim
}

func nodeID(i int) string { return fmt.Sprintf("node%d", i) }
