package serve

import (
	"context"
	"sync"
	"time"

	"lotus/internal/clock"
	"lotus/internal/core/trace"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

// plane is the server's one compute plane: a fixed pool of batch workers
// shared by every session, tf.data service's shared-worker model. A session
// never owns a pipeline; it asks the plane for one batch at a time (through
// the batch cache's Acquire when that is on), so the number of batches being
// preprocessed at once is the pool size whatever the session count.
//
// The pool is a fairGate: its slots bound concurrency and its deficit round
// robin is the queue discipline, so with QoS on tenants share the workers by
// weight however many sessions each one opens, and with QoS off everybody
// queues as one anonymous tenant (plain FIFO). The autotuner's workers
// action resizes the gate.
type plane struct {
	srv  *Server
	gate *fairGate

	// The pipeline the workers run is built on first use, so a server that
	// only ever serves cache hits never materializes a dataset.
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
	return &plane{srv: s, gate: newFairGate(n, 1)}
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
// queues for a worker under the tenant's name and weight (nil: the anonymous
// tenant), charged one unit per batch; ctx cancels the queueing, any injected
// stall and any sample-cache wait inside the batch. The frame's bytes depend
// only on (spec, epoch, pb) — never on which worker or session asked.
func (pl *plane) compute(ctx context.Context, tenant *tenantState, epoch int, pb PlanBatch) (*Frame, error) {
	name, weight := "", 1
	if tenant != nil {
		name, weight = tenant.name, tenant.weight()
	}
	if err := pl.gate.acquire(name, weight, 1, ctx.Done()); err != nil {
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
	clk.Run("serve-worker", func(p clock.Proc) {
		// The trace batch id is unique across epochs: epoch * plan length +
		// the batch's position in the epoch plan.
		b, err = w.Run(p, epoch*pl.srv.planLen+pb.GlobalID, pb.Indices)
	})
	if err != nil {
		return nil, err
	}
	return encodeBatchFrame(batchToWire(epoch, pb.GlobalID, b)), nil
}
