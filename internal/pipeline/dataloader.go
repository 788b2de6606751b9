package pipeline

import (
	"fmt"
	"time"

	"lotus/internal/clock"
	"lotus/internal/faultinject"
	"lotus/internal/native"
	"lotus/internal/rng"
)

// DispatchPolicy selects how the main process assigns the next index batch
// to a worker.
type DispatchPolicy int

const (
	// DispatchProducer replenishes the worker that produced the batch just
	// consumed — PyTorch's behaviour and the paper's § II-B description.
	DispatchProducer DispatchPolicy = iota
	// DispatchLeastWork assigns the next batch to the worker with the least
	// outstanding estimated work, using the Config.CostHint per-sample
	// estimate. This is the "better DataLoader scheduling" direction the
	// paper's Takeaway 4 suggests (and SpeedyLoader pursues): balancing
	// outstanding work reduces completion-order inversions and hence
	// out-of-order stalls.
	DispatchLeastWork
)

// Config parameterizes a DataLoader, mirroring torch.utils.data.DataLoader's
// arguments.
type Config struct {
	BatchSize  int
	NumWorkers int
	// PrefetchFactor is the number of batches dispatched ahead per worker at
	// startup (PyTorch default 2).
	PrefetchFactor int
	Shuffle        bool
	// PinMemory models copying received batches into page-locked memory in
	// the main process.
	PinMemory bool
	// DropLast drops the final partial batch.
	DropLast bool
	Seed     int64
	// Epoch selects the epoch this loader runs. It shifts the shuffle plan
	// through EpochSeed (preserving the historical per-epoch reshuffles) and
	// flows into worker Ctxs, where epochSalt varies the per-sample random
	// suffix while leaving deterministic prefixes untouched. Epoch 0 is
	// byte-identical to a Config that never set the field.
	Epoch int
	// BatchIDOffset shifts this epoch's batch IDs; multi-epoch trainers set
	// it to epoch*NumBatches so trace records from different epochs do not
	// collide.
	BatchIDOffset int
	// Dispatch selects the index-dispatch policy.
	Dispatch DispatchPolicy
	// CostHint estimates one sample's preprocessing cost (arbitrary units)
	// for DispatchLeastWork; nil treats all samples as equal.
	CostHint func(index int) float64
	// OnError selects the failed-batch policy (default FailEpoch).
	OnError ErrorPolicy
	// Hooks are the LotusTrace instrumentation callbacks (nil = untraced).
	Hooks *Hooks
	// Mode, Engine, WorkScale and MaterializeDim configure worker Ctxs.
	Mode           Mode
	Engine         *native.Engine
	WorkScale      float64
	MaterializeDim int
	// BatchPlan, when non-nil, is an explicit epoch batch plan: each entry is
	// one batch's dataset indices, consumed in order. Shuffle, DropLast, and
	// the plan-building half of Seed are ignored (Seed still drives per-sample
	// randomness). It runs a loader over a shard of a shared epoch plan, the
	// local equivalent of one served session's batches.
	BatchPlan [][]int
	// Faults, when non-nil, is the deterministic fault-injection layer: it
	// can fail or stall blob reads inside the loader transforms, panic the
	// worker on selected samples, and stall workers after selected batches.
	Faults *faultinject.Injector
	// SampleCache, when non-nil, is the shared split-point sample cache the
	// workers consult for materialized deterministic-prefix samples, keyed
	// under PrefixFP (the prefix fingerprint for this pipeline).
	SampleCache *SampleCache
	PrefixFP    uint64
}

// EpochSeed derives the per-epoch plan seed from the run seed. The additive
// form is pinned by the serving wire protocol (a remote session must shuffle
// exactly as a local multi-epoch trainer would), so it must not change.
func EpochSeed(seed int64, epoch int) int64 {
	return seed + int64(epoch)*1_000_003
}

// DefaultAutoWorkers is the worker count a loader — or the serving layer's
// shared pool — runs with when NumWorkers is zero: a sane small default.
const DefaultAutoWorkers = 2

func (c Config) validate() Config {
	if c.BatchSize <= 0 {
		panic("pipeline: BatchSize must be positive")
	}
	if c.NumWorkers < 0 {
		panic("pipeline: NumWorkers must not be negative")
	}
	if c.NumWorkers == 0 {
		// Zero means "auto".
		c.NumWorkers = DefaultAutoWorkers
	}
	if c.PrefetchFactor <= 0 {
		c.PrefetchFactor = 2
	}
	return c
}

// MainPID is the pid the main process logs under; worker w logs under
// MainPID+1+w. Fixed values keep traces reproducible.
const MainPID = 4000

// WorkerPID returns the pid assigned to worker w.
func WorkerPID(w int) int { return MainPID + 1 + w }

// indexTask is one entry on a worker's index queue.
type indexTask struct {
	batchID int
	indices []int
}

// ErrorPolicy selects what the main process does when a worker fails to
// produce a batch (a panic in dataset or transform code).
type ErrorPolicy int

const (
	// FailEpoch stops iteration and surfaces the worker's error via
	// Iterator.Err — PyTorch's behaviour (the worker exception is re-raised
	// in the main process).
	FailEpoch ErrorPolicy = iota
	// SkipBatch drops the failed batch, records it in Iterator.Skipped, and
	// keeps iterating — the robust-loader behaviour.
	SkipBatch
)

// workerResult is one entry on the shared data queue.
type workerResult struct {
	batchID int
	batch   *Batch
	worker  int
	err     error
}

// DataLoader reproduces the multi-worker PyTorch loader: the main process
// dispatches index batches to per-worker index queues; workers fetch,
// preprocess, collate, and put completed batches on a shared data queue; the
// main process consumes strictly in batch order, caching out-of-order
// arrivals.
type DataLoader struct {
	cfg     Config
	dataset Dataset
	clk     clock.Clock

	batches [][]int
	// stream, set by NewIterableLoader, replaces dataset and batches: each
	// worker draws its batches from its own shard, and the plan is unbounded.
	stream  IterableDataset
	indexQs []*clock.Queue[indexTask]
	dataQ   *clock.Queue[workerResult]
	started bool
	sendIdx int
	// closed is set once dispatch ends: the plan is all sent, every stream
	// shard has ended, or the epoch failed or was aborted.
	closed bool
	// live marks the workers dispatch may send to: all of them, until a
	// stream worker's retired token tells the main process its shard ended.
	live []bool
	// outstanding tracks estimated queued work per worker for
	// DispatchLeastWork. Only the main proc touches it and creditDrift.
	outstanding []float64
	// creditDrift counts accounting violations in the outstanding ledger:
	// credits that would drive a worker's estimate below zero (a double
	// credit), and nonzero residue left after every dispatched batch has been
	// credited. Always zero in a correct loader; a nonzero value means the
	// load estimates steering DispatchLeastWork are corrupt.
	creditDrift int
	// batchCost caches the per-batch work estimates.
	batchCost []float64
}

// creditEpsilon separates real accounting drift from float64 rounding noise
// when batch costs are credited back in a different order than charged.
const creditEpsilon = 1e-6

// NewDataLoader constructs a loader over ds under clk.
func NewDataLoader(clk clock.Clock, ds Dataset, cfg Config) *DataLoader {
	cfg = cfg.validate()
	dl := &DataLoader{cfg: cfg, dataset: ds, clk: clk}
	dl.buildBatches()
	return dl
}

// BuildBatchPlan returns an epoch's batch plan: the dataset indices 0..n-1,
// shuffled (optionally) with the loader's canonical seed derivation, chunked
// into batches of batchSize. This is exactly the plan NewDataLoader builds
// internally, exported so the serving layer derives a remote session's shard
// from the same plan a local loader would execute.
func BuildBatchPlan(n, batchSize int, shuffle, dropLast bool, seed int64) [][]int {
	if batchSize <= 0 {
		panic("pipeline: BuildBatchPlan needs batchSize > 0")
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if shuffle {
		r := rng.New(seed, "dataloader/shuffle")
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	var batches [][]int
	for at := 0; at < n; at += batchSize {
		end := at + batchSize
		if end > n {
			if dropLast {
				break
			}
			end = n
		}
		// Each batch is an independent copy, not a sub-slice of the shared
		// order array: callers (the serving layer hands plans across epochs
		// and sessions) may mutate one batch's indices without corrupting
		// its neighbors.
		batch := make([]int, end-at)
		copy(batch, order[at:end])
		batches = append(batches, batch)
	}
	return batches
}

// buildBatches installs the explicit plan or builds the canonical one.
func (dl *DataLoader) buildBatches() {
	if dl.cfg.BatchPlan != nil {
		dl.batches = dl.cfg.BatchPlan
	} else {
		dl.batches = BuildBatchPlan(dl.dataset.Len(), dl.cfg.BatchSize,
			dl.cfg.Shuffle, dl.cfg.DropLast, EpochSeed(dl.cfg.Seed, dl.cfg.Epoch))
	}
	dl.batchCost = make([]float64, len(dl.batches))
	for i, idxs := range dl.batches {
		if dl.cfg.CostHint == nil {
			dl.batchCost[i] = float64(len(idxs))
			continue
		}
		for _, idx := range idxs {
			dl.batchCost[i] += dl.cfg.CostHint(idx)
		}
	}
}

// NumBatches returns the number of batches in one epoch.
func (dl *DataLoader) NumBatches() int { return len(dl.batches) }

// Start forks the worker procs and performs initial prefetch dispatch. It
// must be called from inside the clock (p is the main proc). Start returns
// an Iterator for the epoch.
func (dl *DataLoader) Start(p clock.Proc) *Iterator {
	if dl.started {
		panic("pipeline: DataLoader.Start called twice (one epoch per loader)")
	}
	dl.started = true
	n := dl.cfg.NumWorkers
	dl.outstanding = make([]float64, n)
	dl.live = make([]bool, n)
	dl.indexQs = make([]*clock.Queue[indexTask], n)
	for w := range dl.indexQs {
		dl.indexQs[w] = clock.NewQueue[indexTask](dl.clk, 0)
		dl.live[w] = true
	}
	dl.dataQ = clock.NewQueue[workerResult](dl.clk, 0)

	for w := 0; w < n; w++ {
		p.Go(fmt.Sprintf("dataloader-worker-%d", w), func(wp clock.Proc) {
			dl.workerLoop(wp, w)
		})
	}

	// Initial prefetch: prefetch_factor batches per worker, round-robin by
	// batch id (PyTorch's _try_put_index startup behaviour). An empty plan
	// closes dispatch at once, so the workers exit.
	for i := 0; i < dl.cfg.PrefetchFactor*n && !dl.closed; i++ {
		dl.enqueueNext(p, i%n)
	}
	return &Iterator{dl: dl, cached: make(map[int]workerResult)}
}

// enqueueNext sends the next batch to a worker — the hinted one (or, on a
// stream, the next live one) under DispatchProducer, or the least-loaded one
// under DispatchLeastWork — and closes dispatch once nothing is left to
// send: the plan's last batch is out, or every stream shard has ended.
func (dl *DataLoader) enqueueNext(p clock.Proc, hint int) {
	if dl.closed {
		return
	}
	w := dl.pick(hint)
	if w >= 0 && (dl.stream != nil || dl.sendIdx < len(dl.batches)) {
		task := indexTask{batchID: dl.sendIdx}
		if dl.stream == nil {
			task.indices = dl.batches[dl.sendIdx]
		}
		dl.outstanding[w] += dl.cost(dl.sendIdx)
		dl.sendIdx++
		dl.indexQs[w].Put(p, task)
	}
	if w < 0 || dl.stream == nil && dl.sendIdx == len(dl.batches) {
		dl.closeIndex()
	}
}

// pick chooses the worker for the next batch, or -1 when none is live.
func (dl *DataLoader) pick(hint int) int {
	if dl.cfg.Dispatch == DispatchLeastWork {
		w := 0
		for i := range dl.outstanding {
			if dl.outstanding[i] < dl.outstanding[w] {
				w = i
			}
		}
		return w
	}
	for i := range dl.live {
		if w := (hint + i) % len(dl.live); dl.live[w] {
			return w
		}
	}
	return -1
}

// cost is batch id's estimated work; a stream token counts one unit.
func (dl *DataLoader) cost(id int) float64 {
	if dl.stream != nil {
		return 1
	}
	return dl.batchCost[id]
}

// closeIndex ends dispatch: the index queues close, so workers drain what
// was already dispatched and exit.
func (dl *DataLoader) closeIndex() {
	dl.closed = true
	for _, q := range dl.indexQs {
		q.Close()
	}
}

// completed credits a finished batch back against its worker's outstanding
// work estimate. A credit that would drive the estimate below zero is a
// double credit — a real accounting bug that would corrupt every
// DispatchLeastWork decision afterwards — so it is counted in creditDrift
// rather than silently clamped away.
func (dl *DataLoader) completed(batchID, worker int) {
	dl.outstanding[worker] -= dl.cost(batchID)
	if dl.outstanding[worker] < -creditEpsilon {
		dl.creditDrift++
	}
	if dl.outstanding[worker] < 0 {
		dl.outstanding[worker] = 0
	}
}

// noteResidual audits the outstanding ledger once every dispatched batch has
// been credited: residue beyond float rounding at that point is drift.
func (dl *DataLoader) noteResidual() {
	for _, o := range dl.outstanding {
		if o > creditEpsilon || o < -creditEpsilon {
			dl.creditDrift++
		}
	}
}

// workerLoop is the DataLoader worker body (_utils.worker._worker_loop): it
// creates a fetcher (the BatchWorker) and serves index tasks until its queue
// closes. A stream worker's fetcher draws from the worker's own shard.
func (dl *DataLoader) workerLoop(p clock.Proc, workerID int) {
	bw := NewBatchWorker(workerID, dl.dataset, dl.cfg)
	if dl.stream != nil {
		bw.shard = &streamShard{
			iter: dl.stream.Iter(workerID, dl.cfg.NumWorkers),
			size: dl.cfg.BatchSize, dropLast: dl.cfg.DropLast,
		}
	}
	for {
		task, ok := dl.indexQs[workerID].Get(p)
		if !ok {
			return
		}
		batch, err := bw.Run(p, task.batchID+dl.cfg.BatchIDOffset, task.indices, nil)
		dl.dataQ.Put(p, workerResult{batchID: task.batchID, batch: batch, worker: workerID, err: err})
	}
}

// Iterator consumes batches strictly in order from the shared data queue,
// caching and pinning batches that arrive out of order — the behaviour
// behind the paper's wait/delay analysis and Figure 3. Every dispatched
// batch ID yields exactly one result: a batch, a failure, or (from a stream
// worker whose shard has ended) a retired token, which the iterator passes
// silently. The epoch ends when dispatch is closed and every dispatched ID
// is accounted for, whether the plan was known or a stream ran dry.
type Iterator struct {
	dl      *DataLoader
	rcvdIdx int
	// cached holds results that arrived before the main process wanted them.
	cached map[int]workerResult
	// seen counts results received from the data queue. Every dispatched
	// batch produces exactly one result, so Drain knows teardown is complete
	// when seen == dl.sendIdx.
	seen int
	// OOOEvents counts batches that arrived before the main process wanted
	// them (out-of-order arrivals).
	OOOEvents int
	// skipped lists batch IDs dropped under the SkipBatch policy.
	skipped []int
	err     error
}

// Err reports the worker failure that stopped iteration under FailEpoch.
func (it *Iterator) Err() error { return it.err }

// Skipped lists the batch IDs dropped under SkipBatch, in consumption order.
func (it *Iterator) Skipped() []int { return append([]int(nil), it.skipped...) }

// Next returns the next batch in order. ok is false at epoch end. p must be
// the main proc.
func (it *Iterator) Next(p clock.Proc) (*Batch, bool) {
	dl := it.dl
	for it.err == nil && !(dl.closed && it.rcvdIdx == dl.sendIdx) {
		want := it.rcvdIdx
		startWait := p.Now()
		res, cached := it.cached[want]
		if cached {
			delete(it.cached, want)
		} else {
			res = it.receive(p, want)
		}
		if res.err != nil {
			if !it.handleError(p, want, res.worker, res.err) {
				return nil, false
			}
			continue
		}
		if res.batch == nil { // a retired stream token
			it.advance(p, res.worker)
			continue
		}
		if cached {
			// The desired batch already arrived while we were busy: the
			// paper marks these with a 1µs wait to denote no waiting.
			it.logWait(p, want, startWait, time.Microsecond)
		} else {
			it.logWait(p, want, startWait, p.Now().Sub(startWait))
		}
		it.advance(p, res.worker)

		// Consumption: pin the desired batch (if configured) and log the
		// consumption marker.
		consumeStart := p.Now()
		if dl.cfg.PinMemory {
			p.Sleep(PinCost(res.batch.Bytes()))
		}
		if dl.cfg.Hooks != nil && dl.cfg.Hooks.OnBatchConsumed != nil {
			dl.cfg.Hooks.OnBatchConsumed(MainPID, res.batch.ID, consumeStart, p.Now().Sub(consumeStart))
			if dl.cfg.Hooks.PerLogCost > 0 {
				p.Sleep(dl.cfg.Hooks.PerLogCost)
			}
		}
		return res.batch, true
	}
	return nil, false
}

// receive takes results off the data queue until batch want's arrives,
// caching (and pinning) the others.
func (it *Iterator) receive(p clock.Proc, want int) workerResult {
	dl := it.dl
	for {
		res, ok := dl.dataQ.Get(p)
		if !ok {
			panic("pipeline: data queue closed before epoch finished")
		}
		it.seen++
		dl.completed(res.batchID, res.worker)
		if res.batch == nil && res.err == nil {
			// A retired token: the worker's shard has ended.
			dl.live[res.worker] = false
		}
		if res.batchID == want {
			return res
		}
		if res.batch != nil {
			// Out-of-order arrival: pin to CPU memory and cache it.
			it.OOOEvents++
			if dl.cfg.PinMemory {
				p.Sleep(PinCost(res.batch.Bytes()))
			}
		}
		it.cached[res.batchID] = res
	}
}

// advance accounts for the wanted batch ID and replenishes: the next batch
// goes to the worker that produced this one (§ II-B).
func (it *Iterator) advance(p clock.Proc, worker int) {
	dl := it.dl
	it.rcvdIdx++
	dl.enqueueNext(p, worker)
	if dl.closed && it.rcvdIdx == dl.sendIdx && it.seen == dl.sendIdx {
		// Natural epoch end with every dispatched batch credited: the
		// outstanding ledger must be back to zero.
		dl.noteResidual()
	}
}

// handleError applies the error policy to a failed batch. It returns true
// when iteration should continue (SkipBatch) and false when the epoch is
// failed (FailEpoch). Either way the failed batch counts as processed so the
// pipeline keeps flowing or tears down cleanly.
func (it *Iterator) handleError(p clock.Proc, batchID, worker int, err error) bool {
	dl := it.dl
	if dl.cfg.OnError == SkipBatch {
		it.skipped = append(it.skipped, batchID+dl.cfg.BatchIDOffset)
		it.advance(p, worker)
		return true
	}
	it.err = err
	// Tear down: close the index structure so the workers exit instead of
	// waiting for tokens that will never come.
	dl.closeIndex()
	return false
}

func (it *Iterator) logWait(p clock.Proc, batchID int, start time.Time, dur time.Duration) {
	h := it.dl.cfg.Hooks
	if h != nil && h.OnBatchWait != nil {
		h.OnBatchWait(MainPID, batchID+it.dl.cfg.BatchIDOffset, start, dur)
		if h.PerLogCost > 0 {
			p.Sleep(h.PerLogCost)
		}
	}
}

// Drain consumes every in-flight result once Next has reported the end —
// the epoch done, or failed with batches still dispatched — and credits
// completions, blocking until all workers have accounted for every
// dispatched batch. A non-blocking poll is not enough: a worker mid-batch
// when the epoch failed puts its result *after* such a sweep has returned,
// leaving a stale result on the queue and its work forever uncredited in
// outstanding. Every dispatched batch produces exactly one result and data
// queue puts never block, so blocking until seen == sendIdx always
// terminates. p must be the main proc.
func (it *Iterator) Drain(p clock.Proc) {
	dl := it.dl
	for it.seen < dl.sendIdx {
		res, ok := dl.dataQ.Get(p)
		if !ok {
			return
		}
		it.seen++
		dl.completed(res.batchID, res.worker)
	}
	if it.seen == dl.sendIdx {
		dl.noteResidual()
	}
	// Results already received and parked in the cache were counted when
	// they arrived; release them so a failed epoch does not pin batches.
	it.cached = make(map[int]workerResult)
}
