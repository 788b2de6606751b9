// Package workloads assembles the three MLPerf training pipelines the paper
// characterizes (§ V-A) from the substrate packages: Image Classification
// (ImageNet + ResNet18), Image Segmentation (kits19 + U-Net3D), and Object
// Detection (COCO + Mask R-CNN). Each Spec carries the paper's default
// configuration and GPU-side timing calibrated to reproduce the paper's
// bottleneck structure: IC preprocessing-bound, IS and OD GPU-bound.
package workloads

import (
	"fmt"
	"time"

	"lotus/internal/clock"
	"lotus/internal/data"
	"lotus/internal/gpusim"
	"lotus/internal/native"
	"lotus/internal/pipeline"
)

// Kind identifies a pipeline.
type Kind string

const (
	IC Kind = "IC"
	IS Kind = "IS"
	OD Kind = "OD"
	// ICA is the augmented image-classification pipeline: a deterministic
	// decode+resize prefix followed by per-epoch random crop, flip, and
	// pixel noise. It is the workload the split-point sample cache exists
	// for — the batch cache misses every epoch (bytes differ), but the
	// prefix hits.
	ICA Kind = "ICA"
)

// Spec is a fully parameterized workload run.
type Spec struct {
	Kind       Kind
	NumSamples int
	BatchSize  int
	NumWorkers int
	// Prefetch overrides the DataLoader's prefetch factor (0 = default 2).
	Prefetch  int
	GPUs      int
	GPU       gpusim.GPUConfig
	Seed      int64
	Arch      native.Arch
	Shuffle   bool
	PinMemory bool
	// WorkScale stretches simulated work (profiler-interference modeling).
	WorkScale float64
	// OfflineDecode replaces the online decode with a pre-decoded raw read
	// (Takeaway 2's offline-preprocessing strategy). Image pipelines only.
	OfflineDecode bool
	// Dispatch selects the DataLoader's index-dispatch policy.
	Dispatch pipeline.DispatchPolicy
}

// New returns the spec of kind with samples samples and the paper's default
// configuration for it.
func New(kind Kind, samples int, seed int64) (Spec, error) {
	switch kind {
	case IC:
		return ICSpec(samples, seed), nil
	case ICA:
		return ICASpec(samples, seed), nil
	case IS:
		return ISSpec(samples, seed), nil
	case OD:
		return ODSpec(samples, seed), nil
	}
	return Spec{}, fmt.Errorf("unknown workload %q (want IC, ICA, IS, or OD)", kind)
}

// ICSpec returns the paper's image-classification pipeline: Table II uses
// batch 128, 1 GPU, 1 data loader. ResNet18 on a V100 is fast relative to
// decode-heavy preprocessing, which is what makes IC preprocessing-bound.
func ICSpec(samples int, seed int64) Spec {
	return Spec{
		Kind:       IC,
		NumSamples: samples,
		BatchSize:  128,
		NumWorkers: 1,
		GPUs:       1,
		GPU:        gpusim.GPUConfig{PerSample: 300 * time.Microsecond, PerBatch: 20 * time.Millisecond},
		Seed:       seed,
		Arch:       native.Intel,
		Shuffle:    true,
		PinMemory:  true,
	}
}

// ISSpec returns the image-segmentation pipeline: batch 2, 1 GPU, 8 data
// loaders; U-Net3D takes ~750 ms per batch, making the GPU the bottleneck.
func ISSpec(samples int, seed int64) Spec {
	return Spec{
		Kind:       IS,
		NumSamples: samples,
		BatchSize:  2,
		NumWorkers: 8,
		GPUs:       1,
		GPU:        gpusim.GPUConfig{PerSample: 350 * time.Millisecond, PerBatch: 50 * time.Millisecond},
		Seed:       seed,
		Arch:       native.Intel,
		Shuffle:    true,
		PinMemory:  true,
	}
}

// ODSpec returns the object-detection pipeline: batch 2, 1 GPU, 4 data
// loaders; Mask R-CNN takes ~250 ms per batch (GPU-bound).
func ODSpec(samples int, seed int64) Spec {
	return Spec{
		Kind:       OD,
		NumSamples: samples,
		BatchSize:  2,
		NumWorkers: 4,
		GPUs:       1,
		GPU:        gpusim.GPUConfig{PerSample: 115 * time.Millisecond, PerBatch: 20 * time.Millisecond},
		Seed:       seed,
		Arch:       native.Intel,
		Shuffle:    true,
		PinMemory:  true,
	}
}

// ICASpec returns the augmented image-classification pipeline: IC's dataset
// and GPU timing, but with the decode followed by a deterministic Resize so
// the random crop/flip/noise suffix is the only per-epoch work. Four workers
// match the serving layer's augmented-bench configuration.
func ICASpec(samples int, seed int64) Spec {
	return Spec{
		Kind:       ICA,
		NumSamples: samples,
		BatchSize:  128,
		NumWorkers: 4,
		GPUs:       1,
		GPU:        gpusim.GPUConfig{PerSample: 300 * time.Microsecond, PerBatch: 20 * time.Millisecond},
		Seed:       seed,
		Arch:       native.Intel,
		Shuffle:    true,
		PinMemory:  true,
	}
}

// OpOrder returns the pipeline's operation names in Table II column order.
func (s Spec) OpOrder() []string {
	switch s.Kind {
	case IC:
		return []string{"Loader", "RandomResizedCrop", "RandomHorizontalFlip", "ToTensor", "Normalize", "Collate"}
	case ICA:
		return []string{"Loader", "Resize", "RandomCrop", "RandomHorizontalFlip", "RandomPixelNoise", "ToTensor", "Normalize", "Collate"}
	case IS:
		return []string{"Loader", "RandBalancedCrop", "RandomFlip", "Cast", "RandomBrightnessAugmentation", "GaussianNoise", "Collate"}
	case OD:
		return []string{"Loader", "Resize", "RandomHorizontalFlip", "ToTensor", "Normalize", "Collate"}
	}
	panic(fmt.Sprintf("workloads: unknown kind %q", s.Kind))
}

// Compose builds the transform chain for the spec.
func (s Spec) Compose(hooks *pipeline.Hooks) *pipeline.Compose {
	var c *pipeline.Compose
	loader := pipeline.Transform(&pipeline.Loader{IO: data.DefaultIO()})
	if s.OfflineDecode {
		loader = &pipeline.RawLoader{IO: data.DefaultIO()}
	}
	switch s.Kind {
	case IC:
		c = pipeline.NewCompose(
			loader,
			&pipeline.RandomResizedCrop{Size: 224},
			&pipeline.RandomHorizontalFlip{},
			&pipeline.ToTensor{},
			&pipeline.Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
		)
	case ICA:
		c = pipeline.NewCompose(
			loader,
			&pipeline.Resize{W: 256, H: 256},
			&pipeline.RandomCrop{Size: 224},
			&pipeline.RandomHorizontalFlip{},
			&pipeline.RandomPixelNoise{},
			&pipeline.ToTensor{},
			&pipeline.Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
		)
	case IS:
		c = pipeline.NewCompose(
			&pipeline.VolumeLoader{IO: data.DefaultIO()},
			&pipeline.RandBalancedCrop{Patch: [3]int{128, 128, 128}, OversampleP: 0.4},
			&pipeline.RandomFlip{},
			&pipeline.Cast{},
			&pipeline.RandomBrightnessAugmentation{},
			&pipeline.GaussianNoise{},
		)
	case OD:
		c = pipeline.NewCompose(
			loader,
			&pipeline.Resize{W: 800, H: 800},
			&pipeline.RandomHorizontalFlip{},
			&pipeline.ToTensor{},
			&pipeline.Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
		)
	default:
		panic(fmt.Sprintf("workloads: unknown kind %q", s.Kind))
	}
	c.Hooks = hooks
	return c
}

// MappingCompose returns the transform chain extended with a batch-sized
// collation op, which is what the LotusMap preparatory step profiles (the
// running pipeline's Collate is batch-level work and needs a mapping too).
func (s Spec) MappingCompose() *pipeline.Compose {
	c := s.Compose(nil)
	c.Transforms = append(c.Transforms, &pipeline.CollateN{N: minInt(s.BatchSize, 16)})
	return c
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Dataset builds the spec's dataset and wraps it with the transform chain.
func (s Spec) Dataset(hooks *pipeline.Hooks) pipeline.Dataset {
	switch s.Kind {
	case IC, ICA:
		return pipeline.NewImageFolder(data.NewImageDataset(data.ImageNetConfig(s.NumSamples, s.Seed)), s.Compose(hooks))
	case IS:
		return pipeline.NewVolumeFolder(data.NewVolumeDataset(data.Kits19Config(s.NumSamples, s.Seed)), s.Compose(hooks))
	case OD:
		return pipeline.NewImageFolder(data.NewImageDataset(data.COCOConfig(s.NumSamples, s.Seed)), s.Compose(hooks))
	}
	panic(fmt.Sprintf("workloads: unknown kind %q", s.Kind))
}

// Prototype returns a representative sample for LotusMap isolation runs,
// sized near the dataset mean.
func (s Spec) Prototype() pipeline.Sample {
	ds := s.Dataset(nil)
	switch f := ds.(type) {
	case *pipeline.ImageFolder:
		rec := f.Data.Record(0)
		return pipeline.Sample{
			Index: 0, FileBytes: rec.FileBytes, Seed: rec.Seed,
			Width: rec.Width, Height: rec.Height, Channels: 3,
		}
	case *pipeline.VolumeFolder:
		rec := f.Data.Record(0)
		return pipeline.Sample{
			Index: 0, FileBytes: rec.FileBytes, Seed: rec.Seed,
			Depth: rec.D, Height: rec.H, Width: rec.W, Channels: 1,
		}
	}
	panic("workloads: unknown dataset type")
}

// Run executes one simulated training epoch and returns the statistics, the
// engine used (for hardware profiling), and the virtual clock.
func (s Spec) Run(hooks *pipeline.Hooks) (gpusim.EpochStats, *native.Engine, *clock.Sim) {
	engine := native.NewEngine(s.Arch)
	return s.RunWithEngine(hooks, engine)
}

// RunEpochs executes a multi-epoch training job on one virtual clock. Each
// epoch gets a fresh DataLoader (as PyTorch re-creates the iterator per
// epoch), reshuffled with an epoch-derived seed; the loader numbers its
// batches from epoch times the plan length, so the combined trace stays
// unambiguous.
func (s Spec) RunEpochs(hooks *pipeline.Hooks, epochs int) ([]gpusim.EpochStats, *native.Engine, *clock.Sim) {
	if epochs <= 0 {
		panic("workloads: RunEpochs needs epochs >= 1")
	}
	return s.runEpochs(hooks, native.NewEngine(s.Arch), epochs)
}

// RunWithEngine is Run with a caller-provided engine (so a hardware
// profiling session can be attached beforehand).
func (s Spec) RunWithEngine(hooks *pipeline.Hooks, engine *native.Engine) (gpusim.EpochStats, *native.Engine, *clock.Sim) {
	stats, _, sim := s.runEpochs(hooks, engine, 1)
	return stats[0], engine, sim
}

// runEpochs is the body of RunEpochs and RunWithEngine: one trainer proc
// runs epochs 0..epochs-1, each through a fresh DataLoader on engine.
func (s Spec) runEpochs(hooks *pipeline.Hooks, engine *native.Engine, epochs int) ([]gpusim.EpochStats, *native.Engine, *clock.Sim) {
	sim := clock.NewSim()
	stats := make([]gpusim.EpochStats, 0, epochs)
	sim.Run("trainer", func(p clock.Proc) {
		for e := 0; e < epochs; e++ {
			cfg := s.LoaderConfig(pipeline.Simulated, 0, e)
			cfg.Hooks, cfg.Engine = hooks, engine
			dl := pipeline.NewDataLoader(sim, s.Dataset(hooks), cfg)
			trainer := &gpusim.Trainer{Loader: dl, GPUs: s.GPUs, GPU: s.GPU}
			stats = append(stats, trainer.RunEpoch(p))
		}
	})
	return stats, engine, sim
}

// LoaderConfig is the DataLoader configuration the spec runs one epoch
// under in mode: its batch size, workers, prefetch, shuffle, pinning, seed,
// work scale and dispatch policy, and, off real data, a cost-model engine
// for its architecture. Every loader built from a spec takes its
// configuration from here, so a served epoch and its local run cannot
// drift apart.
func (s Spec) LoaderConfig(mode pipeline.Mode, materializeDim, epoch int) pipeline.Config {
	cfg := pipeline.Config{
		BatchSize:      s.BatchSize,
		NumWorkers:     s.NumWorkers,
		PrefetchFactor: s.Prefetch,
		Shuffle:        s.Shuffle,
		PinMemory:      s.PinMemory,
		Seed:           s.Seed,
		Epoch:          epoch,
		Mode:           mode,
		WorkScale:      s.WorkScale,
		MaterializeDim: materializeDim,
		Dispatch:       s.Dispatch,
	}
	if mode != pipeline.RealData {
		cfg.Engine = native.NewEngine(s.Arch)
	}
	return cfg
}
