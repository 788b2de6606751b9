package pipeline

import (
	"lotus/internal/data"
	"lotus/internal/tensor"
)

// Dataset is a map-style dataset: GetItem loads and preprocesses one sample
// (the torch.utils.data.Dataset __getitem__ contract; transforms run inside
// it, which is why the paper instruments Compose rather than the loader
// loop). What GetItem returns from a Compose goes to the caller's collate as
// it is: on a BatchWorker's Ctx, a real-pixel plan that ends in ToTensor,
// Normalize returns the sample with its Image still to be converted
// (rewrite.go), so a dataset that works on the finished Tensor itself does
// so in a transform, before the plan's end.
type Dataset interface {
	Len() int
	GetItem(ctx *Ctx, pid, batchID, index int) Sample
}

// ImageFolder adapts a synthetic image dataset plus a Compose chain — the
// analogue of torchvision.datasets.ImageFolder with a transform argument.
type ImageFolder struct {
	Data      *data.ImageDataset
	Transform *Compose
	loader    *Loader // the chain's Loader, when NewImageFolder found one
}

// NewImageFolder builds the dataset and hands ds to the chain's Loader, so
// real reads go through the dataset's corpus.
func NewImageFolder(ds *data.ImageDataset, tf *Compose) *ImageFolder {
	f := &ImageFolder{Data: ds, Transform: tf}
	for _, t := range tf.Transforms {
		if l, ok := t.(*Loader); ok {
			l.Data = ds
			f.loader = l
		}
	}
	return f
}

// DecodeStats reports the decode counters of the chain's Loader (zero when
// the chain has none).
func (f *ImageFolder) DecodeStats() DecodeStats {
	if f.loader == nil {
		return DecodeStats{}
	}
	return f.loader.DecodeStats()
}

func (f *ImageFolder) Len() int { return f.Data.Len() }

func (f *ImageFolder) GetItem(ctx *Ctx, pid, batchID, index int) Sample {
	rec := f.Data.Record(index)
	s := Sample{
		Index:     index,
		Label:     rec.Label,
		FileBytes: rec.FileBytes,
		Seed:      rec.Seed,
		Width:     rec.Width,
		Height:    rec.Height,
		Channels:  3,
		Dtype:     tensor.Uint8,
	}
	return f.Transform.Apply(ctx, pid, batchID, s)
}

// VolumeFolder adapts a synthetic volume dataset plus a Compose chain (the
// IS pipeline's custom Dataset subclass of Listing 2).
type VolumeFolder struct {
	Data      *data.VolumeDataset
	Transform *Compose
}

// NewVolumeFolder builds the dataset.
func NewVolumeFolder(ds *data.VolumeDataset, tf *Compose) *VolumeFolder {
	return &VolumeFolder{Data: ds, Transform: tf}
}

func (f *VolumeFolder) Len() int { return f.Data.Len() }

func (f *VolumeFolder) GetItem(ctx *Ctx, pid, batchID, index int) Sample {
	rec := f.Data.Record(index)
	s := Sample{
		Index:     index,
		FileBytes: rec.FileBytes,
		Seed:      rec.Seed,
		Depth:     rec.D,
		Height:    rec.H,
		Width:     rec.W,
		Channels:  1,
		Dtype:     tensor.Float32,
	}
	return f.Transform.Apply(ctx, pid, batchID, s)
}
