package pipeline

import (
	"fmt"
	"time"

	"lotus/internal/clock"
	"lotus/internal/native"
)

// IterableDataset is the stream-style dataset contract
// (torch.utils.data.IterableDataset): instead of random access by index,
// each worker walks its own shard of an unbounded-length stream. The paper's
// instrumentation point is the same — the common fetch method — which is why
// LotusTrace needs no fetcher-specific changes (§ III-B1); this loader
// demonstrates that by reusing the identical hooks.
type IterableDataset interface {
	// Iter returns worker workerID's shard iterator for one epoch.
	Iter(workerID, numWorkers int) SampleIter
}

// SampleIter produces preprocessed samples until the shard is exhausted.
type SampleIter interface {
	Next(ctx *Ctx, pid, batchID int) (Sample, bool)
}

// iterResult extends workerResult with the stop sentinel iterable workers
// send when their shard ends mid-epoch (PyTorch's
// _IterableDatasetStopIteration).
type iterResult struct {
	batchID int
	batch   *Batch // nil for a stop sentinel
	worker  int
}

// IterableLoader is the DataLoader over stream datasets. The main process
// dispatches batch tokens instead of index lists; a worker that exhausts its
// shard aborts its outstanding tokens via a stop sentinel, and consumption
// skips aborted batch IDs while preserving in-order delivery of the rest.
type IterableLoader struct {
	cfg     Config
	dataset IterableDataset
	clk     clock.Clock

	tokenQs []*clock.Queue[int]
	dataQ   *clock.Queue[iterResult]
	started bool
	sendIdx int
	// pending tracks each worker's outstanding token batch IDs.
	pending [][]int
	alive   []bool
}

// NewIterableLoader constructs the stream loader.
func NewIterableLoader(clk clock.Clock, ds IterableDataset, cfg Config) *IterableLoader {
	cfg = cfg.validate()
	return &IterableLoader{cfg: cfg, dataset: ds, clk: clk}
}

// Start forks workers and prefetches tokens; it must run on the main proc.
func (il *IterableLoader) Start(p clock.Proc) *IterableIterator {
	if il.started {
		panic("pipeline: IterableLoader.Start called twice")
	}
	il.started = true
	il.tokenQs = make([]*clock.Queue[int], il.cfg.NumWorkers)
	il.pending = make([][]int, il.cfg.NumWorkers)
	il.alive = make([]bool, il.cfg.NumWorkers)
	for w := range il.tokenQs {
		il.tokenQs[w] = clock.NewQueue[int](il.clk, 0)
		il.alive[w] = true
	}
	il.dataQ = clock.NewQueue[iterResult](il.clk, 0)

	for w := 0; w < il.cfg.NumWorkers; w++ {
		w := w
		p.Go(fmt.Sprintf("iterable-worker-%d", w), func(wp clock.Proc) {
			il.workerLoop(wp, w)
		})
	}
	for i := 0; i < il.cfg.PrefetchFactor*il.cfg.NumWorkers; i++ {
		il.dispatch(p, i%il.cfg.NumWorkers)
	}
	return &IterableIterator{il: il, cached: make(map[int]*Batch), aborted: make(map[int]bool)}
}

// dispatch hands the next token to worker w if it is still alive; otherwise
// to the next alive worker.
func (il *IterableLoader) dispatch(p clock.Proc, w int) {
	target := -1
	for i := 0; i < il.cfg.NumWorkers; i++ {
		cand := (w + i) % il.cfg.NumWorkers
		if il.alive[cand] {
			target = cand
			break
		}
	}
	if target < 0 {
		return // every shard exhausted
	}
	id := il.sendIdx
	il.sendIdx++
	il.pending[target] = append(il.pending[target], id)
	il.tokenQs[target].Put(p, id)
}

// workerLoop fetches batches from the worker's shard iterator.
func (il *IterableLoader) workerLoop(p clock.Proc, workerID int) {
	pid := WorkerPID(workerID)
	ctx := &Ctx{
		Proc:           p,
		Engine:         il.cfg.Engine,
		Thread:         &native.Thread{ID: pid},
		Mode:           il.cfg.Mode,
		Seed:           il.cfg.Seed,
		WorkScale:      il.cfg.WorkScale,
		MaterializeDim: il.cfg.MaterializeDim,
	}
	iter := il.dataset.Iter(workerID, il.cfg.NumWorkers)
	collate := &Collate{}
	for {
		batchID, ok := il.tokenQs[workerID].Get(p)
		if !ok {
			return
		}
		start := p.Now()
		if il.cfg.Engine != nil {
			il.cfg.Engine.BeginWork()
		}
		var samples []Sample
		exhausted := false
		for len(samples) < il.cfg.BatchSize {
			s, ok := iter.Next(ctx, pid, batchID)
			if !ok {
				exhausted = true
				break
			}
			samples = append(samples, s)
		}
		if len(samples) == 0 || (exhausted && il.cfg.DropLast) {
			if il.cfg.Engine != nil {
				il.cfg.Engine.EndWork()
			}
			// Stop sentinel: this token (and this worker) yields nothing
			// more; the main process aborts the worker's remaining tokens.
			il.dataQ.Put(p, iterResult{batchID: batchID, worker: workerID})
			return
		}
		collateStart := p.Now()
		collated := collate.Run(ctx, samples)
		if il.cfg.Hooks != nil && il.cfg.Hooks.OnOp != nil {
			il.cfg.Hooks.OnOp(pid, batchID, -1, "Collate", collateStart, p.Now().Sub(collateStart))
			il.logged(p)
		}
		if il.cfg.Engine != nil {
			il.cfg.Engine.EndWork()
		}
		end := p.Now()
		labels := make([]int, len(samples))
		indices := make([]int, len(samples))
		for i, s := range samples {
			labels[i] = s.Label
			indices[i] = s.Index
		}
		batch := &Batch{
			ID: batchID, WorkerID: workerID, Indices: indices, Labels: labels,
			Data: collated, PreprocessedAt: end,
		}
		if il.cfg.Hooks != nil && il.cfg.Hooks.OnBatchPreprocessed != nil {
			il.cfg.Hooks.OnBatchPreprocessed(pid, batchID, start, end.Sub(start))
			il.logged(p)
		}
		il.dataQ.Put(p, iterResult{batchID: batchID, batch: batch, worker: workerID})
		if exhausted {
			// The final (partial) batch is emitted; a sentinel tells the
			// main process the shard is done so it aborts any remaining
			// tokens queued for this worker.
			il.dataQ.Put(p, iterResult{batchID: batchID + 1, worker: workerID})
			return
		}
	}
}

// IterableIterator consumes stream batches in token order, skipping tokens
// aborted by exhausted shards.
type IterableIterator struct {
	il       *IterableLoader
	rcvdIdx  int
	cached   map[int]*Batch
	aborted  map[int]bool
	deadLeft int
}

// Next returns the next batch. ok is false once every shard is exhausted and
// every live batch consumed.
func (it *IterableIterator) Next(p clock.Proc) (*Batch, bool) {
	il := it.il
	for {
		want := it.rcvdIdx
		if it.aborted[want] {
			delete(it.aborted, want)
			it.rcvdIdx++
			continue
		}
		if b, ok := it.cached[want]; ok {
			delete(it.cached, want)
			it.rcvdIdx++
			il.dispatch(p, b.WorkerID)
			if il.cfg.Hooks != nil && il.cfg.Hooks.OnBatchWait != nil {
				il.cfg.Hooks.OnBatchWait(MainPID, b.ID, p.Now(), time.Microsecond)
				il.logged(p)
			}
			if il.cfg.Hooks != nil && il.cfg.Hooks.OnBatchConsumed != nil {
				il.cfg.Hooks.OnBatchConsumed(MainPID, b.ID, p.Now(), 0)
				il.logged(p)
			}
			return b, true
		}
		if it.allDone() {
			return nil, false
		}
		startWait := p.Now()
		res, ok := il.dataQ.Get(p)
		if !ok {
			return nil, false
		}
		if res.batch == nil {
			// Stop sentinel: worker res.worker is done. Abort every token
			// still pending on it — none of them will ever be produced —
			// and close its queue.
			il.alive[res.worker] = false
			for _, id := range il.pending[res.worker] {
				it.aborted[id] = true
			}
			il.pending[res.worker] = nil
			il.tokenQs[res.worker].Close()
			continue
		}
		il.pruneePending(res.worker, res.batchID)
		if il.cfg.Hooks != nil && il.cfg.Hooks.OnBatchWait != nil {
			dur := p.Now().Sub(startWait)
			if res.batchID != want {
				dur = time.Microsecond
			}
			il.cfg.Hooks.OnBatchWait(MainPID, res.batchID, startWait, dur)
			il.logged(p)
		}
		if res.batchID == want {
			it.rcvdIdx++
			il.dispatch(p, res.worker)
			if il.cfg.Hooks != nil && il.cfg.Hooks.OnBatchConsumed != nil {
				il.cfg.Hooks.OnBatchConsumed(MainPID, res.batchID, p.Now(), 0)
				il.logged(p)
			}
			return res.batch, true
		}
		it.cached[res.batchID] = res.batch
	}
}

// logged charges p the modeled cost of the trace record a hook just emitted,
// as the map-style loader does after each of its hooks.
func (il *IterableLoader) logged(p clock.Proc) {
	if c := il.cfg.Hooks.PerLogCost; c > 0 {
		p.Sleep(c)
	}
}

// pruneePending removes a produced token from the worker's pending list.
func (il *IterableLoader) pruneePending(worker, batchID int) {
	pend := il.pending[worker]
	for i, id := range pend {
		if id == batchID {
			il.pending[worker] = append(pend[:i], pend[i+1:]...)
			return
		}
	}
}

// allDone reports whether no further batch can arrive: every shard is
// exhausted, nothing is queued, and nothing is cached.
func (it *IterableIterator) allDone() bool {
	il := it.il
	for _, alive := range il.alive {
		if alive {
			return false
		}
	}
	return il.dataQ.Len() == 0 && len(it.cached) == 0
}

// ---------------------------------------------------------------------------
// Stream adapter over an image dataset (stride sharding), for tests and
// examples.
// ---------------------------------------------------------------------------

// ImageStream adapts an ImageFolder into an IterableDataset: worker w of n
// yields records w, w+n, w+2n, ... (the sharding PyTorch documentation
// recommends for iterable datasets).
type ImageStream struct {
	Folder *ImageFolder
}

// Iter implements IterableDataset.
func (s *ImageStream) Iter(workerID, numWorkers int) SampleIter {
	return &imageStreamIter{folder: s.Folder, next: workerID, stride: numWorkers}
}

type imageStreamIter struct {
	folder *ImageFolder
	next   int
	stride int
}

func (it *imageStreamIter) Next(ctx *Ctx, pid, batchID int) (Sample, bool) {
	if it.next >= it.folder.Len() {
		return Sample{}, false
	}
	s := it.folder.GetItem(ctx, pid, batchID, it.next)
	it.next += it.stride
	return s, true
}
