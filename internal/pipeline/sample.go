// Package pipeline reimplements the preprocessing half of PyTorch's data
// path: map-style datasets, declaratively composed transforms
// (torchvision.transforms.Compose), and a DataLoader with the same
// asynchronous structure the paper instruments — worker processes fed by
// per-worker index queues, a shared data queue back to the main process,
// prefetching, in-order consumption with caching/pinning of out-of-order
// batches, and collation.
//
// Instrumentation points mirror LotusTrace's: the worker-side fetch ([T1]),
// the main-process wait for the next batch ([T2]), each transform inside
// Compose ([T3]), and batch consumption. Hooks are nil by default; package
// core/trace installs them.
package pipeline

import (
	"time"

	"lotus/internal/imaging"
	"lotus/internal/tensor"
)

// Sample is the unit flowing through transforms: metadata that every mode
// maintains, plus optional real payloads (only in real-data mode).
type Sample struct {
	// Index is the dataset index.
	Index int
	// Label is the classification target.
	Label int

	// FileBytes is the encoded on-storage size (consumed by Loader).
	FileBytes int
	// Seed derives per-sample content and randomness.
	Seed int64

	// Current logical geometry. For 2-D data Depth is 0.
	Width, Height, Depth int
	// Channels of the current representation.
	Channels int
	// Dtype of the current representation.
	Dtype tensor.DType

	// Real payloads; at most one is non-nil, and only in real-data mode.
	Image  *imaging.Image
	Volume *imaging.Volume
	Tensor *tensor.Tensor

	// tail, when non-nil, is the plan's ToTensor, Normalize still to be run
	// on Image: the tensor tail→collate rewrite (rewrite.go) leaves them to
	// the Collate of the BatchWorker the sample was made for.
	tail *tensorTail
}

// elems returns the element count of the sample's current representation.
func (s Sample) elems() int {
	n := s.Width * s.Height
	if s.Depth > 0 {
		n *= s.Depth
	}
	if s.Channels > 0 {
		n *= s.Channels
	}
	return n
}

// RawBytes returns the size of the sample's current representation.
func (s Sample) RawBytes() int { return s.elems() * s.Dtype.Size() }

// Batch is a collated set of preprocessed samples.
type Batch struct {
	// ID is the batch index within the epoch, in consumption order.
	ID int
	// WorkerID identifies the DataLoader worker that preprocessed it.
	WorkerID int
	// Indices are the dataset indices collated into the batch.
	Indices []int
	// Labels are the per-sample targets.
	Labels []int
	// Data is the collated tensor ([k, ...]); meta in simulated mode.
	Data *tensor.Tensor
	// PreprocessedAt is when the worker finished producing the batch.
	PreprocessedAt time.Time
}

// Size returns the number of samples in the batch.
func (b *Batch) Size() int { return len(b.Indices) }

// Bytes returns the collated payload size.
func (b *Batch) Bytes() int {
	if b.Data == nil {
		return 0
	}
	return b.Data.Bytes()
}

// Hooks are the LotusTrace instrumentation points. Any field may be nil.
// PerLogCost models the (small) cost of each emitted log record; the
// pipeline charges it to the proc that produced the record, which is how
// the Table III overhead comparison measures instrumented-tracing cost.
type Hooks struct {
	// OnOp fires for each transform application ([T3]) and for collation;
	// proc is the emitting proc's pid.
	OnOp func(pid, batchID, sampleIndex int, op string, start time.Time, dur time.Duration)
	// OnBatchPreprocessed fires around the worker's fetch ([T1]).
	OnBatchPreprocessed func(pid, batchID int, start time.Time, dur time.Duration)
	// OnBatchWait fires when the main process finishes waiting for the batch
	// it wants ([T2]); out-of-order arrivals log a 1µs duration.
	OnBatchWait func(pid, batchID int, start time.Time, dur time.Duration)
	// OnBatchConsumed fires when the main process hands the batch to
	// training.
	OnBatchConsumed func(pid, batchID int, start time.Time, dur time.Duration)
	// PerLogCost is charged per emitted record.
	PerLogCost time.Duration
}
