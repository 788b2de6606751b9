package pipeline

import "lotus/internal/clock"

// IterableDataset is the stream-style dataset contract
// (torch.utils.data.IterableDataset): instead of random access by index,
// each worker walks its own shard of an unbounded-length stream. The paper's
// instrumentation point is the same — the common fetch method — which is why
// LotusTrace needs no fetcher-specific changes (§ III-B1).
type IterableDataset interface {
	// Iter returns worker workerID's shard iterator for one epoch.
	Iter(workerID, numWorkers int) SampleIter
}

// SampleIter produces preprocessed samples until the shard is exhausted. A
// panic in Next fails the batch under Config.OnError; under SkipBatch the
// worker calls Next again for its next batch, so Next must move past a
// sample before it fetches it.
type SampleIter interface {
	Next(ctx *Ctx, pid, batchID int) (Sample, bool)
}

// IterableLoader is the DataLoader over stream datasets. It runs the
// DataLoader's own workers (BatchWorker) and consumer (Iterator); only
// dispatch differs. The main process hands out batch tokens instead of index
// lists, each to a live worker, and the plan has no known end. A worker whose
// shard ends retires every token it is handed from then on; the iterator
// passes those IDs silently, marks the worker dead, and dispatch closes once
// no worker is live (PyTorch's _IterableDatasetStopIteration).
type IterableLoader struct {
	dl *DataLoader
}

// NewIterableLoader constructs the stream loader. It panics on the Config
// fields a stream cannot honour, as PyTorch raises for shuffle with an
// IterableDataset: a stream has no plan to shuffle or replace.
func NewIterableLoader(clk clock.Clock, ds IterableDataset, cfg Config) *IterableLoader {
	switch {
	case cfg.Shuffle:
		panic("pipeline: IterableLoader cannot Shuffle a stream")
	case cfg.BatchPlan != nil:
		panic("pipeline: IterableLoader has no BatchPlan")
	case cfg.Dispatch == DispatchLeastWork:
		panic("pipeline: IterableLoader dispatches tokens, not DispatchLeastWork")
	}
	return &IterableLoader{&DataLoader{cfg: cfg.validate(), stream: ds, clk: clk}}
}

// Start forks workers and prefetches tokens; it must run on the main proc.
func (il *IterableLoader) Start(p clock.Proc) *Iterator { return il.dl.Start(p) }

// streamShard is what a stream worker's BatchWorker draws its batches from.
type streamShard struct {
	iter     SampleIter
	size     int
	dropLast bool
	ended    bool
	indices  []int // the last batch's sample indices, reused
}

// next draws up to size samples from the shard. It returns nil once the
// shard has ended with nothing left for this batch (or, under DropLast, too
// little).
func (s *streamShard) next(ctx *Ctx, pid, batchID int) ([]Sample, []int) {
	samples := make([]Sample, 0, s.size)
	s.indices = s.indices[:0]
	for len(samples) < s.size {
		smp, ok := s.iter.Next(ctx, pid, batchID)
		if !ok {
			s.ended = true
			break
		}
		ctx.samplePanic(smp.Index)
		samples = append(samples, smp)
		s.indices = append(s.indices, smp.Index)
	}
	if len(samples) == 0 || s.ended && s.dropLast {
		return nil, nil
	}
	return samples, s.indices
}

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

// Next moves past a record before it fetches it, so a record whose fetch
// fails (a batch skipped under SkipBatch) is not fetched again.
func (it *imageStreamIter) Next(ctx *Ctx, pid, batchID int) (Sample, bool) {
	i := it.next
	if i >= it.folder.Len() {
		return Sample{}, false
	}
	it.next += it.stride
	return it.folder.GetItem(ctx, pid, batchID, i), true
}
