// Package data provides the synthetic datasets standing in for ImageNet,
// kits19, and MS-COCO, plus the storage I/O model for the remote-mounted
// dataset the paper's testbed uses (a ZFS zvol exported via iSCSI).
//
// Each dataset is a deterministic collection of records whose *size
// distributions* match what the paper reports (ImageNet: mean file size
// 111 KB with a 133 KB standard deviation — the stated driver of Figure 4's
// per-batch time variance). Records carry enough metadata for the
// virtual-time pipeline to model costs exactly, and can also materialize
// real encoded payloads (SJPG images) for the real-time examples.
package data

import (
	"fmt"
	"math"
	"time"

	"lotus/internal/imaging"
	"lotus/internal/rng"
)

// IOModel converts a read of n bytes into a storage delay. It models the
// paper's remote block device: per-request latency plus bandwidth-limited
// streaming, with multiplicative jitter.
type IOModel struct {
	// BaseLatency is the fixed per-read cost (network round trip + block
	// layer).
	BaseLatency time.Duration
	// BandwidthMBps is the sustained sequential throughput.
	BandwidthMBps float64
	// JitterFrac is the +/- fractional jitter applied per read.
	JitterFrac float64
}

// DefaultIO returns the iSCSI-remote-zvol-like model.
func DefaultIO() IOModel {
	return IOModel{BaseLatency: 250 * time.Microsecond, BandwidthMBps: 700, JitterFrac: 0.2}
}

// ReadDelay computes the delay for reading n bytes, drawing jitter from r.
func (m IOModel) ReadDelay(n int, r *rng.Stream) time.Duration {
	if m.BandwidthMBps <= 0 {
		return m.BaseLatency
	}
	stream := float64(n) / (m.BandwidthMBps * 1e6) // seconds
	jitter := 1.0
	if m.JitterFrac > 0 && r != nil {
		jitter = r.Uniform(1-m.JitterFrac, 1+m.JitterFrac)
	}
	d := m.BaseLatency + time.Duration(stream*jitter*float64(time.Second))
	return d
}

// ImageRecord describes one encoded image on storage.
type ImageRecord struct {
	Index     int
	FileBytes int // encoded size on disk
	Width     int // decoded width
	Height    int // decoded height
	Label     int
	Seed      int64 // content seed for materialization
}

// RawBytes returns the decoded RGB payload size.
func (r ImageRecord) RawBytes() int { return r.Width * r.Height * 3 }

// ImageDataset is a synthetic collection of encoded images.
type ImageDataset struct {
	Name    string
	Records []ImageRecord
	IO      IOModel
	Classes int

	// corpus holds the files rendered so far (see Blob).
	corpus corpus
}

// ImageConfig parameterizes synthesis of an image dataset.
type ImageConfig struct {
	Name string
	// N is the number of images.
	N int
	// MeanFileKB / StdFileKB parameterize the log-normal file-size
	// distribution.
	MeanFileKB, StdFileKB float64
	// MinFileKB / MaxFileKB clip the tails.
	MinFileKB, MaxFileKB float64
	// CompressionRatio relates encoded bytes to raw RGB bytes
	// (raw = encoded * ratio). Baseline JPEG photos sit near 10:1.
	CompressionRatio float64
	// Classes is the label cardinality.
	Classes int
	Seed    int64
	IO      IOModel
}

// ImageNetConfig matches the paper's ImageNet-2012 statistics scaled to n
// images.
func ImageNetConfig(n int, seed int64) ImageConfig {
	return ImageConfig{
		Name: "imagenet-synth", N: n,
		MeanFileKB: 111, StdFileKB: 133,
		MinFileKB: 8, MaxFileKB: 2048,
		CompressionRatio: 10,
		Classes:          1000,
		Seed:             seed,
		IO:               DefaultIO(),
	}
}

// COCOConfig approximates MS-COCO's larger, less varied photos.
func COCOConfig(n int, seed int64) ImageConfig {
	return ImageConfig{
		Name: "coco-synth", N: n,
		MeanFileKB: 165, StdFileKB: 260,
		MinFileKB: 24, MaxFileKB: 2048,
		CompressionRatio: 10,
		Classes:          80,
		Seed:             seed,
		IO:               DefaultIO(),
	}
}

// NewImageDataset synthesizes a dataset from the config.
func NewImageDataset(cfg ImageConfig) *ImageDataset {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("data: dataset %q needs N > 0", cfg.Name))
	}
	sizes := rng.New(cfg.Seed, cfg.Name+"/sizes")
	labels := rng.New(cfg.Seed, cfg.Name+"/labels")
	aspects := rng.New(cfg.Seed, cfg.Name+"/aspect")
	ds := &ImageDataset{Name: cfg.Name, IO: cfg.IO, Classes: cfg.Classes}
	for i := 0; i < cfg.N; i++ {
		kb := sizes.LogNormal(cfg.MeanFileKB, cfg.StdFileKB)
		kb = math.Max(cfg.MinFileKB, math.Min(cfg.MaxFileKB, kb))
		fileBytes := int(kb * 1024)
		raw := float64(fileBytes) * cfg.CompressionRatio
		pixels := raw / 3
		aspect := aspects.Uniform(0.7, 1.5) // width/height
		w := int(math.Sqrt(pixels * aspect))
		h := int(pixels / math.Max(1, float64(w)))
		if w < 32 {
			w = 32
		}
		if h < 32 {
			h = 32
		}
		ds.Records = append(ds.Records, ImageRecord{
			Index:     i,
			FileBytes: fileBytes,
			Width:     w,
			Height:    h,
			Label:     labels.Intn(cfg.Classes),
			Seed:      cfg.Seed*1e9 + int64(i),
		})
	}
	return ds
}

// Len returns the number of images.
func (ds *ImageDataset) Len() int { return len(ds.Records) }

// Record returns the i-th image's metadata.
func (ds *ImageDataset) Record(i int) ImageRecord { return ds.Records[i] }

// DefaultMaterializeDim is the resolution cap real payloads are rendered at
// when the caller names none.
const DefaultMaterializeDim = 256

// CappedDims returns the geometry a w x h record is rendered at under the
// maxDim cap (<= 0: DefaultMaterializeDim): halved until both sides fit,
// never below 32. Real payloads are rendered at a reduced resolution to keep
// run time reasonable while the record keeps its nominal dimensions for
// costing.
func CappedDims(w, h, maxDim int) (int, int) {
	if maxDim <= 0 {
		maxDim = DefaultMaterializeDim
	}
	for (w > maxDim || h > maxDim) && w > 32 && h > 32 {
		w /= 2
		h /= 2
	}
	return w, h
}

// Materialize renders the record's file: the image synthesized from its seed
// at the capped geometry, encoded as quality-85 SJPG with 4:2:0 chroma
// (photographic JPEGs typically are, so decoding it exercises the chroma
// upsampling path, sep_upsample). The bytes are a pure function of (Width,
// Height, Seed, maxDim). This is the one definition of "the file of sample
// i"; the virtual-time pipeline never calls it.
func (r ImageRecord) Materialize(maxDim int) []byte {
	w, h := CappedDims(r.Width, r.Height, maxDim)
	im := imaging.SynthesizeImage(w, h, r.Seed)
	blob := imaging.EncodeSJPGSubsampled(im, 85, imaging.Sub420)
	im.Release()
	return blob
}

// Materialize renders the i-th image's file.
func (ds *ImageDataset) Materialize(i int, maxDim int) []byte {
	return ds.Records[i].Materialize(maxDim)
}

// Blob returns the file of rec under the maxDim cap: Materialize's bytes,
// rendered once per dataset. The first touch of a record renders it and
// stores the blob in the dataset's corpus; every later touch reads it back
// into buf, which the result then aliases (a larger buffer is allocated when
// buf is too small). A nil dataset, a record that is not this dataset's, and
// every failure of the corpus render inline — same bytes, no memo.
func (ds *ImageDataset) Blob(rec ImageRecord, maxDim int, buf []byte) []byte {
	if ds == nil || rec.Index < 0 || rec.Index >= len(ds.Records) || !ds.Records[rec.Index].sameFile(rec) {
		return rec.Materialize(maxDim)
	}
	if blob, ok := ds.corpus.read(rec.Index, maxDim, buf); ok {
		return blob
	}
	blob := rec.Materialize(maxDim)
	ds.corpus.append(rec.Index, maxDim, len(ds.Records), blob)
	return blob
}

// sameFile reports whether two records render the same bytes.
func (r ImageRecord) sameFile(o ImageRecord) bool {
	return r.Width == o.Width && r.Height == o.Height && r.Seed == o.Seed
}

// CorpusStats reports the counters of the dataset's corpus.
func (ds *ImageDataset) CorpusStats() CorpusStats {
	ds.corpus.mu.Lock()
	defer ds.corpus.mu.Unlock()
	return ds.corpus.stats
}

// FileSizeStats returns the mean and standard deviation of encoded file
// sizes in bytes.
func (ds *ImageDataset) FileSizeStats() (mean, std float64) {
	n := float64(len(ds.Records))
	if n == 0 {
		return 0, 0
	}
	var sum, sumsq float64
	for _, r := range ds.Records {
		f := float64(r.FileBytes)
		sum += f
		sumsq += f * f
	}
	mean = sum / n
	std = math.Sqrt(math.Max(0, sumsq/n-mean*mean))
	return mean, std
}

// VolumeRecord describes one stored 3-D volume (kits19-like case).
type VolumeRecord struct {
	Index     int
	FileBytes int
	D, H, W   int
	Seed      int64
}

// RawBytes returns the in-memory float32 payload size.
func (r VolumeRecord) RawBytes() int { return r.D * r.H * r.W * 4 }

// VolumeDataset is a synthetic collection of volumes.
type VolumeDataset struct {
	Name    string
	Records []VolumeRecord
	IO      IOModel
}

// VolumeConfig parameterizes volume dataset synthesis.
type VolumeConfig struct {
	Name        string
	N           int
	MeanVoxelsM float64 // mean voxel count, millions
	StdVoxelsM  float64
	MinVoxelsM  float64
	MaxVoxelsM  float64
	Seed        int64
	IO          IOModel
}

// Kits19Config matches the MLPerf IS preprocessed kits19 cases: large
// volumes with high size variance (the driver of IS's 15.47% per-batch
// stddev and RandBalancedCrop's heavy P90 tail).
func Kits19Config(n int, seed int64) VolumeConfig {
	return VolumeConfig{
		Name: "kits19-synth", N: n,
		MeanVoxelsM: 7.5, StdVoxelsM: 1.6,
		MinVoxelsM: 1.5, MaxVoxelsM: 30,
		Seed: seed,
		IO:   DefaultIO(),
	}
}

// NewVolumeDataset synthesizes a volume dataset.
func NewVolumeDataset(cfg VolumeConfig) *VolumeDataset {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("data: dataset %q needs N > 0", cfg.Name))
	}
	sizes := rng.New(cfg.Seed, cfg.Name+"/sizes")
	shapes := rng.New(cfg.Seed, cfg.Name+"/shapes")
	ds := &VolumeDataset{Name: cfg.Name, IO: cfg.IO}
	for i := 0; i < cfg.N; i++ {
		vm := sizes.LogNormal(cfg.MeanVoxelsM, cfg.StdVoxelsM)
		vm = math.Max(cfg.MinVoxelsM, math.Min(cfg.MaxVoxelsM, vm))
		voxels := vm * 1e6
		// kits19 cases are anisotropic: D varies much more than H/W.
		hw := shapes.Uniform(160, 260)
		d := voxels / (hw * hw)
		if d < 16 {
			d = 16
		}
		rec := VolumeRecord{
			Index: i,
			D:     int(d), H: int(hw), W: int(hw),
			Seed: cfg.Seed*1e9 + int64(i),
		}
		rec.FileBytes = rec.RawBytes() // .npy stores raw float32
		ds.Records = append(ds.Records, rec)
	}
	return ds
}

// Len returns the number of volumes.
func (ds *VolumeDataset) Len() int { return len(ds.Records) }

// Record returns the i-th volume's metadata.
func (ds *VolumeDataset) Record(i int) VolumeRecord { return ds.Records[i] }

// Materialize synthesizes the i-th volume at a capped resolution for real
// execution.
func (ds *VolumeDataset) Materialize(i int, maxDim int) *imaging.Volume {
	rec := ds.Records[i]
	d, h, w := rec.D, rec.H, rec.W
	for (d > maxDim || h > maxDim || w > maxDim) && d > 8 && h > 8 && w > 8 {
		d /= 2
		h /= 2
		w /= 2
	}
	return imaging.SynthesizeVolume(maxInt(1, d), maxInt(1, h), maxInt(1, w), rec.Seed)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
