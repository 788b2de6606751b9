package data

import (
	"math"
	"testing"
	"time"

	"lotus/internal/imaging"
	"lotus/internal/rng"
)

// fileSizeStats returns the mean and standard deviation of ds's encoded file
// sizes in bytes.
func fileSizeStats(ds *ImageDataset) (mean, std float64) {
	n := float64(len(ds.Records))
	var sum, sumsq float64
	for _, r := range ds.Records {
		f := float64(r.FileBytes)
		sum += f
		sumsq += f * f
	}
	mean = sum / n
	return mean, math.Sqrt(math.Max(0, sumsq/n-mean*mean))
}

func TestImageNetFileSizeDistribution(t *testing.T) {
	ds := NewImageDataset(ImageNetConfig(20000, 1))
	mean, std := fileSizeStats(ds)
	// Paper: mean 111 KB, stddev 133 KB. Clipping trims the tails, so allow
	// a generous band but require the high-variance character.
	if mean < 85e3 || mean > 135e3 {
		t.Fatalf("mean file size %.0f B, want ~111 KB", mean)
	}
	if std < 80e3 || std > 170e3 {
		t.Fatalf("file size stddev %.0f B, want ~133 KB", std)
	}
}

func TestImageDatasetDeterministic(t *testing.T) {
	a := NewImageDataset(ImageNetConfig(100, 7))
	b := NewImageDataset(ImageNetConfig(100, 7))
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs across identical configs", i)
		}
	}
	c := NewImageDataset(ImageNetConfig(100, 8))
	same := 0
	for i := range a.Records {
		if a.Records[i].FileBytes == c.Records[i].FileBytes {
			same++
		}
	}
	if same == len(a.Records) {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestImageRecordGeometryConsistent(t *testing.T) {
	ds := NewImageDataset(ImageNetConfig(500, 3))
	for _, r := range ds.Records {
		if r.Width < 32 || r.Height < 32 {
			t.Fatalf("record %d too small: %dx%d", r.Index, r.Width, r.Height)
		}
		// Raw size should be roughly CompressionRatio x encoded size.
		ratio := float64(r.Width*r.Height*3) / float64(r.FileBytes)
		if ratio < 3 || ratio > 30 {
			t.Fatalf("record %d compression ratio %.1f implausible", r.Index, ratio)
		}
		if r.Label < 0 || r.Label >= 1000 {
			t.Fatalf("record %d label %d out of range", r.Index, r.Label)
		}
	}
}

func TestIOModelDelay(t *testing.T) {
	m := IOModel{BaseLatency: time.Millisecond, BandwidthMBps: 100, JitterFrac: 0}
	// 100 MB at 100 MB/s = 1 s + 1 ms base.
	d := m.ReadDelay(100e6, nil)
	want := time.Second + time.Millisecond
	if d != want {
		t.Fatalf("ReadDelay = %v, want %v", d, want)
	}
	// Larger reads take longer.
	if m.ReadDelay(1e6, nil) >= m.ReadDelay(10e6, nil) {
		t.Fatal("delay not monotone in bytes")
	}
}

func TestIOModelJitterBounded(t *testing.T) {
	m := DefaultIO()
	r := rng.New(1, "io")
	base := IOModel{BaseLatency: m.BaseLatency, BandwidthMBps: m.BandwidthMBps}.ReadDelay(111<<10, nil)
	for i := 0; i < 200; i++ {
		d := m.ReadDelay(111<<10, r)
		lo := m.BaseLatency + time.Duration(float64(base-m.BaseLatency)*(1-m.JitterFrac))
		hi := m.BaseLatency + time.Duration(float64(base-m.BaseLatency)*(1+m.JitterFrac))
		if d < lo-time.Microsecond || d > hi+time.Microsecond {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
	}
}

func TestMaterializeImageDecodes(t *testing.T) {
	ds := NewImageDataset(ImageNetConfig(3, 2))
	blob := ds.Record(0).Materialize(128)
	im, err := imaging.DecodeSJPG(blob)
	if err != nil {
		t.Fatalf("materialized blob does not decode: %v", err)
	}
	if im.W > 128 || im.H > 128 {
		t.Fatalf("materialized image %dx%d exceeds cap", im.W, im.H)
	}
}

func TestKits19VolumesLargeAndVariable(t *testing.T) {
	ds := NewVolumeDataset(Kits19Config(300, 4))
	var sum, sumsq float64
	for _, r := range ds.Records {
		if r.D < 16 || r.H < 100 || r.W < 100 {
			t.Fatalf("volume %d implausibly small: %dx%dx%d", r.Index, r.D, r.H, r.W)
		}
		mb := float64(r.RawBytes()) / 1e6
		sum += mb
		sumsq += mb * mb
	}
	n := float64(ds.Len())
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if mean < 10 || mean > 80 {
		t.Fatalf("mean volume %.1f MB out of expected range", mean)
	}
	if std/mean < 0.10 {
		t.Fatalf("volume size CV %.2f too low — RandBalancedCrop cost still needs size spread", std/mean)
	}
}

func TestCOCOBiggerThanImageNetOnAverage(t *testing.T) {
	in := NewImageDataset(ImageNetConfig(5000, 6))
	coco := NewImageDataset(COCOConfig(5000, 6))
	im, _ := fileSizeStats(in)
	cm, _ := fileSizeStats(coco)
	if cm <= im {
		t.Fatalf("COCO mean %.0f should exceed ImageNet mean %.0f", cm, im)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for N=0")
		}
	}()
	NewImageDataset(ImageConfig{Name: "x", N: 0})
}
