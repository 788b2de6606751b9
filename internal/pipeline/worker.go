package pipeline

import (
	"fmt"
	"time"

	"lotus/internal/clock"
	"lotus/internal/native"
	"lotus/internal/tensor"
)

// BatchWorker is one worker's batch body — the part of PyTorch's
// _worker_loop between taking an index task and putting the result on the
// data queue: fetch and preprocess every sample, collate, fire the [T1]/[T3]
// hooks, sit out injected stalls. It owns the per-worker Ctx (random-stream
// and kernel-call scratch, the read-ahead device) and the collate op, so it
// runs one batch at a time. The DataLoader and the IterableLoader run one per
// worker proc; the serving layer runs one per slot of its server-wide pool.
type BatchWorker struct {
	// Ctx is the worker's execution context, built from the Config. A caller
	// that multiplexes epochs over one worker (internal/serve) sets Epoch
	// and Abort before each Run; Run itself binds Proc.
	Ctx Ctx

	id      int
	dataset Dataset
	// shard, on an IterableLoader worker, is the stream Run draws from in
	// place of dataset and indices.
	shard   *streamShard
	hooks   *Hooks
	collate Collate
}

// NewBatchWorker builds worker id's batch body over ds from the
// worker-facing half of cfg (mode, engine, seeds, caches, faults, hooks).
func NewBatchWorker(id int, ds Dataset, cfg Config) *BatchWorker {
	return &BatchWorker{
		Ctx: Ctx{
			Engine:         cfg.Engine,
			Thread:         &native.Thread{ID: WorkerPID(id)},
			Mode:           cfg.Mode,
			Seed:           cfg.Seed,
			Epoch:          cfg.Epoch,
			WorkScale:      cfg.WorkScale,
			MaterializeDim: cfg.MaterializeDim,
			Faults:         cfg.Faults,
			SampleCache:    cfg.SampleCache,
			collates:       true,
		},
		id:      id,
		dataset: ds,
		hooks:   cfg.Hooks,
	}
}

// Run preprocesses one batch under proc p. batchID is the id every trace
// record, fault decision and the returned Batch carry. dst places the
// collated tensor (nil: allocate it); when Run fails after dst was asked, the
// buffer it handed out holds garbage and stays the caller's to reclaim.
// Panics from dataset or transform code are captured and returned as the
// error (PyTorch pickles the worker exception and re-raises it in the main
// process). A stream worker ignores indices and draws the batch from its
// shard; once the shard has ended Run returns neither batch nor error: the
// token retires.
func (w *BatchWorker) Run(p clock.Proc, batchID int, indices []int, dst CollateDst) (*Batch, error) {
	if w.shard != nil && w.shard.ended {
		return nil, nil
	}
	ctx := &w.Ctx
	ctx.Proc = p
	pid := WorkerPID(w.id)
	start := p.Now()
	// The batch's reads are issued now, on the worker's device (ReadBlob).
	ctx.readFree = start
	if ctx.Engine != nil {
		ctx.Engine.BeginWork()
	}
	var samples []Sample
	var collated *tensor.Tensor
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("pipeline: worker %d failed on batch %d: %v", w.id, batchID, r)
			}
		}()
		if w.shard != nil {
			if samples, indices = w.shard.next(ctx, pid, batchID); samples == nil {
				return nil
			}
		} else {
			samples = make([]Sample, len(indices))
			for i, idx := range indices {
				ctx.samplePanic(idx)
				samples[i] = w.dataset.GetItem(ctx, pid, batchID, idx)
			}
		}
		collateStart := p.Now()
		collated = w.collate.RunInto(ctx, samples, dst)
		if w.hooks != nil && w.hooks.OnOp != nil {
			w.hooks.OnOp(pid, batchID, -1, "Collate", collateStart, p.Now().Sub(collateStart))
			if w.hooks.PerLogCost > 0 {
				p.Sleep(w.hooks.PerLogCost)
			}
		}
		return nil
	}()
	ctx.readFree = time.Time{}
	if ctx.Engine != nil {
		ctx.Engine.EndWork()
	}
	if err == nil && samples == nil {
		return nil, nil // the shard ended before this token
	}
	// Injected engine stall: the worker pauses after the batch's work (GC
	// pause / CPU contention), delaying its arrival on the data queue
	// without changing the batch's preprocessing span.
	ctx.faultSleep(ctx.Faults.BatchStall(batchID))
	ctx.faultSleep(ctx.Faults.WorkerSlowdown(w.id))
	if err != nil {
		return nil, err
	}
	end := p.Now()

	labels := make([]int, len(samples))
	for i, s := range samples {
		labels[i] = s.Label
	}
	batch := &Batch{
		ID:             batchID,
		WorkerID:       w.id,
		Indices:        append([]int(nil), indices...),
		Labels:         labels,
		Data:           collated,
		PreprocessedAt: end,
	}
	if w.hooks != nil && w.hooks.OnBatchPreprocessed != nil {
		w.hooks.OnBatchPreprocessed(pid, batchID, start, end.Sub(start))
		if w.hooks.PerLogCost > 0 {
			p.Sleep(w.hooks.PerLogCost)
		}
	}
	return batch, nil
}

// samplePanic is the worker-panic fault seam, consulted per sample index.
func (c *Ctx) samplePanic(index int) {
	if c.Faults.SamplePanic(index) {
		panic(fmt.Sprintf("faultinject: worker panic on sample %d", index))
	}
}

// faultSleep pauses the worker for an injected fault stall. Simulated-clock
// stalls are virtual — they cost teardown nothing and must stay on the
// deterministic scheduler — so they sleep normally. Real-clock stalls race
// the epoch abort: a node degraded enough to get its session severed (a
// hedged straggler, a disconnecting client) must not keep the worker pinned
// for the remainder of a stall nobody will consume.
func (c *Ctx) faultSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if !clock.IsReal(c.Proc) {
		c.Proc.Sleep(d)
		return
	}
	select {
	case <-time.After(d):
	case <-c.Abort:
	}
}
