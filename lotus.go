// Package lotus is the public API of the Lotus reproduction: a profiling
// toolkit for ML preprocessing pipelines, consisting of LotusTrace
// (fine-grained, low-overhead instrumentation of the DataLoader's
// asynchronous data flow) and LotusMap (reconstruction of the mapping from
// framework-level operations to the native functions they execute, and
// attribution of hardware counters to operations).
//
// The package re-exports the user-facing types from the internal substrate
// packages. A minimal traced run looks like:
//
//	clk := lotus.NewSimClock()
//	var buf bytes.Buffer
//	tracer := lotus.NewTracer(&buf)
//	hooks := tracer.Hooks()
//
//	dataset := lotus.NewImageFolder(
//		lotus.NewImageDataset(lotus.ImageNetConfig(10000, 1)),
//		lotus.NewCompose(
//			&lotus.Loader{IO: lotus.DefaultIO()},
//			&lotus.RandomResizedCrop{Size: 224},
//			&lotus.RandomHorizontalFlip{},
//			&lotus.ToTensor{},
//			&lotus.Normalize{Mean: ..., Std: ...},
//		),
//	)
//	loader := lotus.NewDataLoader(clk, dataset, lotus.LoaderConfig{...})
//	clk.Run("main", func(p lotus.Proc) {
//		it := loader.Start(p)
//		for { if _, ok := it.Next(p); !ok { break } }
//	})
//	tracer.Flush()
//	analysis := lotus.Analyze(lotus.MustReadLog(&buf))
//
// The hardware layer simulates one machine, the paper's testbed (a
// dual-socket 3.2 GHz Xeon E5-2667, 32 logical cores), and LotusMap runs
// the paper's method: NewEngine takes only the CPU vendor, and
// DefaultMapConfig only the profiler's sampler.
package lotus

import (
	"io"

	"lotus/internal/autotune"
	"lotus/internal/clock"
	"lotus/internal/core/lotusmap"
	"lotus/internal/core/trace"
	"lotus/internal/data"
	"lotus/internal/experiments"
	"lotus/internal/gpusim"
	"lotus/internal/hwsim"
	"lotus/internal/native"
	"lotus/internal/pipeline"
	"lotus/internal/profilers"
	"lotus/internal/tensor"
	"lotus/internal/workloads"
)

// ---------------------------------------------------------------------------
// Execution substrate
// ---------------------------------------------------------------------------

// Clock is the execution substrate pipelines run under.
type Clock = clock.Clock

// Proc is a handle held by each concurrently executing activity.
type Proc = clock.Proc

// SimClock is the deterministic virtual-time scheduler.
type SimClock = clock.Sim

// Epoch is the virtual-time origin used by simulated clocks.
var Epoch = clock.Epoch

// NewSimClock returns a deterministic virtual-time clock; multi-worker
// pipelines characterized under it are reproducible and run in milliseconds
// of wall time.
func NewSimClock() *SimClock { return clock.NewSim() }

// NewRealClock returns a wall-clock execution substrate (real goroutines).
func NewRealClock() Clock { return clock.NewReal() }

// ---------------------------------------------------------------------------
// Pipeline (the PyTorch DataLoader analogue)
// ---------------------------------------------------------------------------

// Sample, Batch, and Hooks are the pipeline's data and instrumentation types.
type (
	Sample = pipeline.Sample
	Batch  = pipeline.Batch
	Hooks  = pipeline.Hooks
)

// Compose chains transforms (torchvision.transforms.Compose).
type Compose = pipeline.Compose

// NewCompose chains the given transforms.
func NewCompose(ts ...pipeline.Transform) *Compose { return pipeline.NewCompose(ts...) }

// Transform is one preprocessing operation.
type Transform = pipeline.Transform

// Ctx is the per-worker execution context threaded through transforms.
type Ctx = pipeline.Ctx

// KernelCall requests native-kernel work from a custom transform
// (ctx.Work(lotus.KernelCall{Kernel: "...", Bytes: n})).
type KernelCall = native.Call

// Tensor is the dense array type batches carry; DType selects the element
// type.
type (
	Tensor = tensor.Tensor
	DType  = tensor.DType
)

// Element types.
const (
	DTypeUint8   = tensor.Uint8
	DTypeFloat32 = tensor.Float32
)

// The transform set used by the MLPerf pipelines.
type (
	Loader                       = pipeline.Loader
	RandomResizedCrop            = pipeline.RandomResizedCrop
	Resize                       = pipeline.Resize
	RandomHorizontalFlip         = pipeline.RandomHorizontalFlip
	ToTensor                     = pipeline.ToTensor
	Normalize                    = pipeline.Normalize
	VolumeLoader                 = pipeline.VolumeLoader
	RandBalancedCrop             = pipeline.RandBalancedCrop
	RandomFlip                   = pipeline.RandomFlip
	Cast                         = pipeline.Cast
	RandomBrightnessAugmentation = pipeline.RandomBrightnessAugmentation
	GaussianNoise                = pipeline.GaussianNoise
)

// Dataset is the map-style dataset contract.
type Dataset = pipeline.Dataset

// ImageFolder and VolumeFolder adapt synthetic datasets to the Dataset
// contract.
type (
	ImageFolder  = pipeline.ImageFolder
	VolumeFolder = pipeline.VolumeFolder
)

// NewImageFolder wraps an image dataset with a transform chain.
func NewImageFolder(ds *data.ImageDataset, tf *Compose) *ImageFolder {
	return pipeline.NewImageFolder(ds, tf)
}

// NewVolumeFolder wraps a volume dataset with a transform chain.
func NewVolumeFolder(ds *data.VolumeDataset, tf *Compose) *VolumeFolder {
	return pipeline.NewVolumeFolder(ds, tf)
}

// LoaderConfig parameterizes a DataLoader (torch.utils.data.DataLoader).
type LoaderConfig = pipeline.Config

// DataLoader is the multi-worker loader with per-worker index queues and a
// shared data queue.
type DataLoader = pipeline.DataLoader

// Iterator consumes batches in order.
type Iterator = pipeline.Iterator

// NewDataLoader constructs a loader.
func NewDataLoader(clk Clock, ds Dataset, cfg LoaderConfig) *DataLoader {
	return pipeline.NewDataLoader(clk, ds, cfg)
}

// Execution modes for LoaderConfig.Mode.
const (
	Simulated = pipeline.Simulated
	RealData  = pipeline.RealData
)

// ---------------------------------------------------------------------------
// Datasets and storage
// ---------------------------------------------------------------------------

// Synthetic dataset types and configurations.
type (
	ImageDataset  = data.ImageDataset
	VolumeDataset = data.VolumeDataset
	ImageConfig   = data.ImageConfig
	VolumeConfig  = data.VolumeConfig
	IOModel       = data.IOModel
)

// NewImageDataset synthesizes an image dataset.
func NewImageDataset(cfg ImageConfig) *ImageDataset { return data.NewImageDataset(cfg) }

// NewVolumeDataset synthesizes a volume dataset.
func NewVolumeDataset(cfg VolumeConfig) *VolumeDataset { return data.NewVolumeDataset(cfg) }

// ImageNetConfig, COCOConfig, and Kits19Config match the paper's datasets'
// size statistics.
func ImageNetConfig(n int, seed int64) ImageConfig { return data.ImageNetConfig(n, seed) }

// COCOConfig approximates MS-COCO.
func COCOConfig(n int, seed int64) ImageConfig { return data.COCOConfig(n, seed) }

// Kits19Config approximates the kits19 volumes.
func Kits19Config(n int, seed int64) VolumeConfig { return data.Kits19Config(n, seed) }

// DefaultIO returns the remote-storage I/O model.
func DefaultIO() IOModel { return data.DefaultIO() }

// ---------------------------------------------------------------------------
// LotusTrace
// ---------------------------------------------------------------------------

// Tracer is the LotusTrace logger; Record is one log entry.
type (
	Tracer      = trace.Tracer
	Record      = trace.Record
	Analysis    = trace.Analysis
	OpStat      = trace.OpStat
	BatchInfo   = trace.BatchInfo
	DistStats   = trace.DistStats
	Granularity = trace.Granularity
)

// Trace visualization granularities.
const (
	Coarse = trace.Coarse
	Fine   = trace.Fine
)

// Record kinds.
const (
	KindOp                = trace.KindOp
	KindBatchPreprocessed = trace.KindBatchPreprocessed
	KindBatchWait         = trace.KindBatchWait
	KindBatchConsumed     = trace.KindBatchConsumed
)

// NewTracer writes LotusTrace records to w.
func NewTracer(w io.Writer, opts ...trace.Option) *Tracer { return trace.NewTracer(w, opts...) }

// WithPerLogCost models the per-record emission cost.
var WithPerLogCost = trace.WithPerLogCost

// ReadLog parses a LotusTrace log stream.
func ReadLog(r io.Reader) ([]Record, error) { return trace.ReadLog(r) }

// ReadLogWithMeta parses a log and returns its provenance header (nil if
// absent).
func ReadLogWithMeta(r io.Reader) ([]Record, map[string]string, error) {
	return trace.ReadLogWithMeta(r)
}

// MustReadLog is ReadLog for logs the caller just wrote (panics on error).
func MustReadLog(r io.Reader) []Record {
	recs, err := trace.ReadLog(r)
	if err != nil {
		panic(err)
	}
	return recs
}

// Analyze builds the wait/delay/per-op analyses over records.
func Analyze(records []Record) *Analysis { return trace.Analyze(records) }

// ComputeDistStats summarizes a duration sample (mean, stddev, quartiles).
var ComputeDistStats = trace.ComputeDistStats

// Finding and AdvisorConfig drive the automated log analysis
// (Analysis.Advise), the rule-based bottleneck diagnosis.
type (
	Finding       = trace.Finding
	AdvisorConfig = trace.AdvisorConfig
)

// FormatFindings renders advisor findings as a report.
var FormatFindings = trace.FormatFindings

// ExportChrome renders records as a Chrome Trace Viewer file with data-flow
// arrows and negative synthetic ids.
func ExportChrome(records []Record, g Granularity) ([]byte, error) {
	return trace.ExportChrome(records, g)
}

// AugmentChrome merges LotusTrace events into an existing trace JSON.
func AugmentChrome(existing []byte, records []Record, g Granularity) ([]byte, error) {
	return trace.AugmentChrome(existing, records, g)
}

// ---------------------------------------------------------------------------
// Hardware layer and LotusMap
// ---------------------------------------------------------------------------

// Engine executes native kernels under a cost model on the simulated
// testbed; Arch selects the CPU vendor.
type (
	Engine   = native.Engine
	Arch     = native.Arch
	Kernel   = native.Kernel
	Counters = hwsim.Counters
	Session  = hwsim.Session
	Report   = hwsim.Report
)

// CPU vendors.
const (
	Intel = native.Intel
	AMD   = native.AMD
)

// NewEngine builds an engine with the standard kernel inventory.
func NewEngine(arch Arch) *Engine { return native.NewEngine(arch) }

// NewSession attaches an ITT/AMDProfileControl-style collection session.
func NewSession(engine *Engine) *Session { return hwsim.NewSession(engine) }

// VTuneSampler and UProfSampler return the two hardware profilers' sampling
// configurations (10 ms and 1 ms user-mode intervals).
var (
	VTuneSampler = hwsim.VTuneSampler
	UProfSampler = hwsim.UProfSampler
)

// Mapping is LotusMap's reconstructed op→native-function map; MapConfig
// tunes the methodology.
type (
	Mapping     = lotusmap.Mapping
	MapConfig   = lotusmap.Config
	MappedFunc  = lotusmap.MappedFunc
	Attribution = lotusmap.Attribution
	MapQuality  = lotusmap.Quality
)

// DefaultMapConfig returns the paper-calibrated methodology.
func DefaultMapConfig(sampler hwsim.SamplerConfig) MapConfig {
	return lotusmap.DefaultConfig(sampler)
}

// MapPipeline reconstructs the mapping for every transform of the chain.
func MapPipeline(engine *Engine, compose *Compose, prototype Sample, cfg MapConfig) *Mapping {
	return lotusmap.MapPipeline(engine, compose, prototype, cfg)
}

// Attribute splits function-granularity hardware counters across operations
// using LotusTrace elapsed-time weights.
func Attribute(report *Report, m *Mapping, opWeights map[string]float64) *Attribution {
	return lotusmap.Attribute(report, m, opWeights)
}

// EvaluateMapping scores a reconstruction against the simulator's ground
// truth.
func EvaluateMapping(m *Mapping, engine *Engine, compose *Compose) []MapQuality {
	return lotusmap.Evaluate(m, engine, compose)
}

// RunsNeeded is the § IV-B capture formula: the smallest n with
// C >= 1-(1-f/s)^n.
var RunsNeeded = lotusmap.RunsNeeded

// ---------------------------------------------------------------------------
// Training, workloads, profiler comparison, experiments
// ---------------------------------------------------------------------------

// Trainer consumes batches on simulated GPUs; GPUConfig models device time.
type (
	Trainer    = gpusim.Trainer
	GPUConfig  = gpusim.GPUConfig
	EpochStats = gpusim.EpochStats
)

// Workload specs for the MLPerf pipelines. Spec.MappingCompose returns the
// transform chain extended with a batch collation op for LotusMap.
type WorkloadSpec = workloads.Spec

// CollateN adapts batch collation to the Transform interface for isolation
// profiling.
type CollateN = pipeline.CollateN

// ICWorkload, ISWorkload, and ODWorkload return the paper-default specs.
func ICWorkload(samples int, seed int64) WorkloadSpec { return workloads.ICSpec(samples, seed) }

// ISWorkload is the image-segmentation pipeline.
func ISWorkload(samples int, seed int64) WorkloadSpec { return workloads.ISSpec(samples, seed) }

// ODWorkload is the object-detection pipeline.
func ODWorkload(samples int, seed int64) WorkloadSpec { return workloads.ODSpec(samples, seed) }

// ProfilerModel describes a comparison tool's mechanism (Tables III/IV).
type ProfilerModel = profilers.Profiler

// AllProfilers returns the comparison set.
func AllProfilers() []ProfilerModel { return profilers.All() }

// Experiment regenerates one paper table/figure.
type (
	Experiment       = experiments.Experiment
	ExperimentResult = experiments.Result
	ExperimentScale  = experiments.Scale
)

// Experiment scales.
const (
	ScaleSmall = experiments.Small
	ScaleFull  = experiments.Full
)

// Experiments returns every table/figure regenerator in paper order.
func Experiments() []Experiment { return experiments.All() }

// Validate checks a trace log's structural invariants.
var Validate = trace.Validate

// RenderTimeline draws the coarse trace as a terminal Gantt chart.
var RenderTimeline = trace.RenderTimeline

// DiffAnalyses compares two traced runs per operation and per epoch metric.
var DiffAnalyses = trace.DiffAnalyses

// TraceDiff is the before/after comparison of two traced runs.
type TraceDiff = trace.Diff

// Error policies for LoaderConfig.OnError.
const (
	FailEpoch = pipeline.FailEpoch
	SkipBatch = pipeline.SkipBatch
)

// Issue is one trace-consistency violation.
type Issue = trace.Issue

// TuneConfig / TuneResult drive the LotusTrace-signal-based worker-count
// autotuner.
type (
	TuneConfig = autotune.Config
	TuneResult = autotune.Result
)

// Tune searches the worker count for a workload using trace signals.
func Tune(spec WorkloadSpec, cfg TuneConfig) TuneResult { return autotune.Tune(spec, cfg) }

// Stream datasets (torch.utils.data.IterableDataset analogue).
type (
	IterableDataset = pipeline.IterableDataset
	SampleIter      = pipeline.SampleIter
	IterableLoader  = pipeline.IterableLoader
	ImageStream     = pipeline.ImageStream
)

// NewIterableLoader constructs the stream-dataset loader.
func NewIterableLoader(clk Clock, ds IterableDataset, cfg LoaderConfig) *IterableLoader {
	return pipeline.NewIterableLoader(clk, ds, cfg)
}

// Dispatch policies for LoaderConfig.Dispatch.
const (
	DispatchProducer  = pipeline.DispatchProducer
	DispatchLeastWork = pipeline.DispatchLeastWork
)

// Refined attribution (per-function mix weighting) and its validation
// oracle.
var (
	AttributeRefined = lotusmap.AttributeRefined
	TrueOpCounters   = lotusmap.TrueOpCounters
	AttributionError = lotusmap.AttributionError
)

// LookupExperiment finds an experiment by id ("table1" .. "fig6").
func LookupExperiment(id string) (Experiment, bool) { return experiments.Lookup(id) }
