package serve

import (
	"context"
	"sync"
	"time"

	"lotus/internal/clock"
	"lotus/internal/core/trace"
	"lotus/internal/data"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

// plane is the server's one compute plane: a fixed pool of batch workers
// shared by every session, tf.data service's shared-worker model. A session
// never owns a pipeline; it asks the plane for one batch at a time (through
// the batch cache's Acquire), so the number of batches being
// preprocessed at once is the pool size whatever the session count.
//
// The pool is a fairGate: its slots bound concurrency and its weighted round
// robin is the queue discipline, so tenants share the workers by weight
// however many sessions each one opens, and sessions that name no tenant
// queue as the one default tenant "" (plain FIFO).
type plane struct {
	srv  *Server
	gate *fairGate

	// The pipeline the workers run is built on first use, so a server that
	// only ever serves cache hits never materializes a dataset. init writes
	// ds and cfg under mu, for readers that have not been through once.
	once sync.Once
	ds   pipeline.Dataset
	cfg  pipeline.Config

	// idle parks the workers not running a batch. One is built only when a
	// granted slot finds none parked, so all — the workers ever built — is
	// also the high-water mark of concurrent batch computations.
	mu   sync.Mutex
	idle []*pipeline.BatchWorker
	all  int
}

func newPlane(s *Server) *plane {
	n := s.cfg.Spec.NumWorkers
	if n <= 0 {
		n = pipeline.DefaultAutoWorkers
	}
	return &plane{srv: s, gate: newFairGate(n)}
}

// wallClock reports whether batches run on the wall clock (real pixels, or
// the modeled latencies paced in real time) rather than a virtual one.
func (s *Server) wallClock() bool {
	return s.cfg.Mode == pipeline.RealData || s.cfg.EmulateTime
}

func (pl *plane) init() {
	s := pl.srv
	spec := s.cfg.Spec
	ring := s.ring
	hooks := &pipeline.Hooks{
		OnOp: func(pid, batchID, sampleIndex int, op string, start time.Time, dur time.Duration) {
			ring.Add(trace.Record{Kind: trace.KindOp, PID: pid, BatchID: batchID,
				SampleIndex: sampleIndex, Op: op, Start: start, Dur: dur})
		},
		OnBatchPreprocessed: func(pid, batchID int, start time.Time, dur time.Duration) {
			ring.Add(trace.Record{Kind: trace.KindBatchPreprocessed, PID: pid, BatchID: batchID,
				SampleIndex: -1, Start: start, Dur: dur})
		},
		// Served runs charge the same modeled per-record cost a streamed
		// Tracer run would — the Ring/Tracer overhead parity satellite.
		PerLogCost: spec.PerLogCost,
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.ds = spec.Dataset(hooks)
	pl.cfg = pipeline.Config{
		Seed:           spec.Seed,
		Hooks:          hooks,
		Mode:           s.cfg.Mode,
		WorkScale:      spec.WorkScale,
		MaterializeDim: s.cfg.MaterializeDim,
		Faults:         s.cfg.Faults,
		SampleCache:    s.sampleCache,
		PrefixFP:       s.prefixFP,
	}
	if s.cfg.Mode != pipeline.RealData {
		pl.cfg.Engine = native.NewEngine(spec.Arch, native.DefaultCPU())
	}
}

// loaderStats reports where an image workload's input comes from and what the
// Loader does with it: the counters of the dataset's corpus — where the
// one-time cost of rendering each sample's file shows — and of the decodes.
// ok is false until the first real-pixel batch of an image workload has been
// computed.
func (pl *plane) loaderStats() (corpus data.CorpusStats, decode pipeline.DecodeStats, ok bool) {
	pl.mu.Lock()
	folder, _ := pl.ds.(*pipeline.ImageFolder)
	pl.mu.Unlock()
	if folder == nil || pl.srv.cfg.Mode != pipeline.RealData {
		return corpus, decode, false
	}
	return folder.Data.CorpusStats(), folder.DecodeStats(), true
}

// worker hands out a parked batch worker, building the next one (and with
// it the next trace pid, pipeline.WorkerPID(id)) when none is parked.
func (pl *plane) worker() *pipeline.BatchWorker {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if n := len(pl.idle); n > 0 {
		w := pl.idle[n-1]
		pl.idle = pl.idle[:n-1]
		return w
	}
	pl.all++
	return pipeline.NewBatchWorker(pl.all-1, pl.ds, pl.cfg)
}

func (pl *plane) park(w *pipeline.BatchWorker) {
	pl.mu.Lock()
	pl.idle = append(pl.idle, w)
	pl.mu.Unlock()
}

// compute preprocesses and encodes one batch of one epoch on the pool. It
// queues for a worker under the tenant's name and weight; ctx cancels the
// queueing, any injected stall and any sample-cache wait inside the batch.
// The frame's bytes depend only on (spec, epoch, pb) — never on which worker
// or session asked.
func (pl *plane) compute(ctx context.Context, tenant *tenantState, epoch int, pb PlanBatch) (*Frame, error) {
	if err := pl.gate.acquire(tenant.name, tenant.weight(), ctx.Done()); err != nil {
		return nil, err
	}
	defer pl.gate.release()
	if err := ctx.Err(); err != nil {
		return nil, err // granted as the session went away: nobody wants the batch
	}
	pl.once.Do(pl.init)
	w := pl.worker()
	defer pl.park(w)
	w.Ctx.Epoch, w.Ctx.Abort = epoch, ctx.Done()

	var clk clock.Clock
	if pl.srv.wallClock() {
		clk = clock.NewReal()
	} else {
		clk = clock.NewSim()
	}
	var b *pipeline.Batch
	var err error
	// The worker collates straight into the frame: the tensor is written
	// once, at the offset it is sent from — for a plan with a tensor tail, as
	// the pixels the client finishes.
	fc := frameCollate{samples: len(pb.Indices)}
	clk.Run("serve-worker", func(p clock.Proc) {
		// The trace batch id is unique across epochs: epoch * plan length +
		// the batch's position in the epoch plan.
		b, err = w.Run(p, epoch*pl.srv.planLen+pb.GlobalID, pb.Indices, fc.dst)
	})
	if err != nil {
		fc.discard()
		return nil, err
	}
	f := fc.frame(batchToWire(epoch, pb.GlobalID, b))
	pl.srv.metrics.AddDigest(f.Len())
	return f, nil
}

// batchToWire converts a pipeline batch to its wire form.
func batchToWire(epoch, globalID int, b *pipeline.Batch) *Batch {
	wb := &Batch{
		Epoch:    epoch,
		GlobalID: globalID,
		Indices:  b.Indices,
		Labels:   b.Labels,
	}
	if b.Data != nil {
		wb.Dtype = b.Data.Dtype
		wb.Shape = b.Data.Shape
		wb.U8 = b.Data.U8
		wb.F32 = b.Data.F32
	}
	return wb
}

// fairGate is the plane's queue: a pool of worker slots arbitrated between
// tenants by weighted round robin, one unit per batch. Each round-robin visit
// grants a tenant's queue up to weight waiters, so when demand exceeds the
// pool tenants progress in proportion to their weights however many sessions
// each one runs (the tf.data-service multi-consumer model: one greedy trainer
// cannot starve the rest). When nothing is queued, acquisition is a
// lock-plus-decrement fast path (work conserving).
type fairGate struct {
	mu      sync.Mutex
	free    int // pool size minus slots held
	queues  map[string]*gateQueue
	ring    []*gateQueue // round-robin order over queues with waiters
	idx     int
	waiting int // live (non-canceled) queued waiters
}

type gateQueue struct {
	weight int
	// credit is how many more waiters the current round-robin visit may
	// grant; 0 means no visit is in progress and the next one starts with
	// weight. Dispatch runs incrementally — it returns whenever slots run
	// out and resumes on the next release — so a visit's remainder is kept
	// here rather than re-issued: crediting the queue it left off on again
	// at every resume would inflate that tenant's share.
	credit int
	q      []*gateWaiter
}

type gateWaiter struct {
	ready    chan struct{}
	granted  bool
	canceled bool
}

func newFairGate(slots int) *fairGate {
	return &fairGate{free: max(slots, 1), queues: make(map[string]*gateQueue)}
}

// acquire blocks until the caller holds one slot or cancel fires. Every
// successful acquire must be paired with exactly one release.
func (g *fairGate) acquire(tenant string, weight int, cancel <-chan struct{}) error {
	g.mu.Lock()
	if g.waiting == 0 && g.free > 0 {
		g.free--
		g.mu.Unlock()
		return nil
	}
	q := g.queues[tenant]
	if q == nil {
		q = &gateQueue{weight: max(weight, 1)}
		g.queues[tenant] = q
	}
	if len(q.q) == 0 {
		g.ring = append(g.ring, q)
	}
	w := &gateWaiter{ready: make(chan struct{})}
	q.q = append(q.q, w)
	g.waiting++
	g.dispatchLocked()
	g.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-cancel:
		g.mu.Lock()
		defer g.mu.Unlock()
		if w.granted {
			// The grant raced the cancel; the caller owns the slot and its
			// normal release path runs.
			return nil
		}
		w.canceled = true
		g.waiting--
		return errQoSCanceled
	}
}

// release returns one slot and wakes whatever the scheduler grants next.
func (g *fairGate) release() {
	g.mu.Lock()
	g.free++
	g.dispatchLocked()
	g.mu.Unlock()
}

// dispatchLocked grants slots round robin until slots or live waiters run
// out. It terminates because every ring cycle either grants (each queue with
// a live waiter is good for at least one) or drops a queue of canceled
// waiters. When slots run out mid-visit, dispatch returns with the ring
// pointer parked on the current queue and its remaining credit intact, so the
// next release resumes that visit instead of starting a fresh one — without
// this, sequential single-slot operation would collapse weighted shares to
// plain round robin.
func (g *fairGate) dispatchLocked() {
	for g.free > 0 && g.waiting > 0 {
		if g.idx >= len(g.ring) {
			g.idx = 0
		}
		q := g.ring[g.idx]
		if q.credit == 0 {
			q.credit = q.weight
		}
		for g.free > 0 && q.credit > 0 && len(q.q) > 0 {
			w := q.q[0]
			q.q = q.q[1:]
			if w.canceled {
				continue
			}
			q.credit--
			g.free--
			g.waiting--
			w.granted = true
			close(w.ready)
		}
		switch {
		case len(q.q) == 0:
			// An idle queue forfeits its credit and leaves the ring, so a
			// tenant cannot bank share during quiet periods.
			q.credit = 0
			g.ring = append(g.ring[:g.idx], g.ring[g.idx+1:]...)
		case q.credit == 0:
			g.idx++ // visit spent: move on, the next visit re-credits
		}
	}
}
