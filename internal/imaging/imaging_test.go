package imaging

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"lotus/internal/rng"
)

func TestSynthesizeImageDeterministic(t *testing.T) {
	a := SynthesizeImage(64, 48, 7)
	b := SynthesizeImage(64, 48, 7)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed produced different images")
		}
	}
	c := SynthesizeImage(64, 48, 8)
	diff := 0
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical images")
	}
}

// TestTensorRoundTrip: ToFloat32Tensor lays the interleaved pixels out as
// [3, H, W] planes scaled into [0, 1], and every value maps back to its byte.
func TestTensorRoundTrip(t *testing.T) {
	im := SynthesizeImage(37, 23, 1)
	ten := im.ToFloat32Tensor()
	if len(ten.Shape) != 3 || ten.Shape[0] != 3 || ten.Shape[1] != im.H || ten.Shape[2] != im.W {
		t.Fatalf("shape %v, want [3 %d %d]", ten.Shape, im.H, im.W)
	}
	plane := im.W * im.H
	for j := 0; j < plane; j++ {
		for c := 0; c < 3; c++ {
			if back := uint8(math.Round(float64(ten.F32[c*plane+j]) * 255)); back != im.Pix[3*j+c] {
				t.Fatalf("pixel %d channel %d: %d came back as %d", j, c, im.Pix[3*j+c], back)
			}
		}
	}
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) (r, g, b uint8) {
	i := (y*im.W + x) * 3
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// PSNR computes peak signal-to-noise ratio between two same-sized images, in
// dB: the codec round-trip tests' measure of loss.
func PSNR(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("imaging: PSNR size mismatch")
	}
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

// TapsFor returns output sample i's taps (Counts[i] live entries).
func (rc *ResampleCoeffs) TapsFor(i int) []int32 {
	return rc.Taps[i*rc.KSize : i*rc.KSize+int(rc.Counts[i])]
}

// yCbCrToRGB is rgbToYCbCr's inverse (libjpeg's ycc_rgb_convert), the
// decoder's row loops' arithmetic one pixel at a time.
func yCbCrToRGB(y, cb, cr int32) (uint8, uint8, uint8) {
	r, g, b := yccToRGB(y, cb-128, cr-128)
	return clampU8(r), clampU8(g), clampU8(b)
}

func TestSJPGRoundTripQuality(t *testing.T) {
	im := SynthesizeImage(96, 64, 42)
	for _, q := range []int{50, 75, 90} {
		data := EncodeSJPGSubsampled(im, q, Sub444)
		dec, err := DecodeSJPG(data)
		if err != nil {
			t.Fatalf("decode at q=%d: %v", q, err)
		}
		if dec.W != im.W || dec.H != im.H {
			t.Fatalf("q=%d: decoded %dx%d, want %dx%d", q, dec.W, dec.H, im.W, im.H)
		}
		psnr := PSNR(im, dec)
		if psnr < 25 {
			t.Fatalf("q=%d: PSNR %.1f dB too low for a working codec", q, psnr)
		}
	}
}

func TestSJPGHigherQualityHigherFidelityAndSize(t *testing.T) {
	im := SynthesizeImage(128, 96, 3)
	low := EncodeSJPGSubsampled(im, 30, Sub444)
	high := EncodeSJPGSubsampled(im, 95, Sub444)
	if len(high) <= len(low) {
		t.Fatalf("q=95 output (%d B) not larger than q=30 (%d B)", len(high), len(low))
	}
	dl, _ := DecodeSJPG(low)
	dh, _ := DecodeSJPG(high)
	if PSNR(im, dh) <= PSNR(im, dl) {
		t.Fatalf("higher quality produced lower PSNR (%.1f <= %.1f)", PSNR(im, dh), PSNR(im, dl))
	}
}

func TestSJPGCompresses(t *testing.T) {
	im := SynthesizeImage(256, 256, 11)
	data := EncodeSJPGSubsampled(im, 85, Sub444)
	if len(data) >= len(im.Pix) {
		t.Fatalf("encoded %d B >= raw %d B; codec does not compress", len(data), len(im.Pix))
	}
}

func TestSJPGNonMultipleOf8(t *testing.T) {
	im := SynthesizeImage(33, 17, 5)
	dec, err := DecodeSJPG(EncodeSJPGSubsampled(im, 90, Sub444))
	if err != nil {
		t.Fatal(err)
	}
	if dec.W != 33 || dec.H != 17 {
		t.Fatalf("decoded %dx%d", dec.W, dec.H)
	}
	if PSNR(im, dec) < 25 {
		t.Fatalf("PSNR %.1f too low", PSNR(im, dec))
	}
}

// TestSJPGDims: SJPGDims and the decoders read the header through one
// function, so a header one refuses the others refuse.
func TestSJPGDims(t *testing.T) {
	header := func(fields ...uint64) []byte {
		b := []byte(sjpgMagic)
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return b
	}
	good := EncodeSJPGSubsampled(SynthesizeImage(40, 30, 1), 80, Sub444)
	for _, tc := range []struct {
		name string
		data []byte
		w, h int // 0: must be refused
	}{
		{"valid 4:4:4", good, 40, 30},
		{"valid 4:2:0", EncodeSJPGSubsampled(SynthesizeImage(17, 9, 2), 60, Sub420), 17, 9},
		{"header only", header(40, 30, 80, 0), 40, 30}, // dimensions parse; the decode fails on the body
		{"empty", nil, 0, 0},
		{"bad magic", []byte("NOPE\x28\x1e\x50\x00"), 0, 0},
		{"magic only", []byte(sjpgMagic), 0, 0},
		{"truncated after width", header(40), 0, 0},
		{"truncated after height", header(40, 30), 0, 0},
		{"truncated after quality", header(40, 30, 80), 0, 0},
		{"zero width", header(0, 30, 80, 0), 0, 0},
		{"zero height", header(40, 0, 80, 0), 0, 0},
		{"zero by zero", header(0, 0, 80, 0), 0, 0},
		{"width negative after an int cast", header(1<<63, 30, 80, 0), 0, 0},
		{"height negative after an int cast", header(40, 1<<64-1, 80, 0), 0, 0},
		{"2^63-sized", header(1<<63-1, 1<<63-1, 80, 0), 0, 0},
		{"product wraps to small", header(1<<32, 1<<32, 80, 0), 0, 0},
		{"side over 65536", header(1<<16+1, 1, 80, 0), 0, 0},
		{"over the pixel limit", header(1<<16, 1<<16, 80, 0), 0, 0},
		{"unknown subsampling", header(40, 30, 80, 2), 0, 0},
		{"overlong varint", append([]byte(sjpgMagic), bytes.Repeat([]byte{0x80}, 11)...), 0, 0},
	} {
		w, h, err := SJPGDims(tc.data)
		if tc.w == 0 {
			if err == nil {
				t.Errorf("%s: SJPGDims = %dx%d, want an error", tc.name, w, h)
			}
			if _, derr := DecodeSJPG(tc.data); derr == nil {
				t.Errorf("%s: DecodeSJPG accepted it", tc.name)
			}
			if _, derr := DecodeSJPGRegion(tc.data, 0, 0, 1, 1); derr == nil {
				t.Errorf("%s: DecodeSJPGRegion accepted it", tc.name)
			}
			continue
		}
		if err != nil || w != tc.w || h != tc.h {
			t.Errorf("%s: SJPGDims = (%d, %d, %v), want %dx%d", tc.name, w, h, err, tc.w, tc.h)
		}
	}
}

func TestSJPGRejectsGarbage(t *testing.T) {
	if _, err := DecodeSJPG([]byte("NOPE")); err == nil {
		t.Fatal("expected error on bad magic")
	}
	if _, err := DecodeSJPG([]byte{}); err == nil {
		t.Fatal("expected error on empty input")
	}
	good := EncodeSJPGSubsampled(SynthesizeImage(16, 16, 1), 80, Sub444)
	if _, err := DecodeSJPG(good[:len(good)/2]); err == nil {
		t.Fatal("expected error on truncated payload")
	}
}

func TestDCTInverse(t *testing.T) {
	var blk, orig [64]int32
	for i := range blk {
		blk[i] = int32((i*37)%251) - 128
		orig[i] = blk[i]
	}
	fdct8x8(&blk)
	idct8x8(&blk)
	for i := range blk {
		// Fixed-point forward+inverse round trip: each pass rounds once,
		// so samples may move by one intensity level but no more.
		if absInt(int(blk[i])-int(orig[i])) > 1 {
			t.Fatalf("DCT not invertible at %d: %v vs %v", i, blk[i], orig[i])
		}
	}
}

func TestColorConversionInverse(t *testing.T) {
	for _, px := range [][3]uint8{{0, 0, 0}, {255, 255, 255}, {200, 30, 90}, {12, 240, 5}} {
		y, cb, cr := rgbToYCbCr(px[0], px[1], px[2])
		r, g, b := yCbCrToRGB(y, cb, cr)
		if absInt(int(r)-int(px[0])) > 1 || absInt(int(g)-int(px[1])) > 1 || absInt(int(b)-int(px[2])) > 1 {
			t.Fatalf("round trip %v -> (%d,%d,%d)", px, r, g, b)
		}
	}
}

func TestResizePreservesConstantImage(t *testing.T) {
	im := NewImage(50, 40)
	for i := range im.Pix {
		im.Pix[i] = 77
	}
	out := Resize(im, 23, 31)
	if out.W != 23 || out.H != 31 {
		t.Fatalf("resized to %dx%d", out.W, out.H)
	}
	for i, v := range out.Pix {
		if v != 77 {
			t.Fatalf("pixel %d = %d, want 77 (filter weights must sum to 1)", i, v)
		}
	}
}

func TestResizeDownUpApproximation(t *testing.T) {
	im := SynthesizeImage(64, 64, 9)
	// Down 2x then up 2x should stay recognizably similar for smooth content.
	down := Resize(im, 32, 32)
	up := Resize(down, 64, 64)
	if p := PSNR(im, up); p < 20 {
		t.Fatalf("down/up PSNR %.1f dB too low", p)
	}
}

func TestPrecomputeCoeffsNormalized(t *testing.T) {
	for _, c := range []struct{ src, dst int }{{100, 50}, {50, 100}, {224, 224}, {7, 3}} {
		rc := PrecomputeCoeffs(c.src, c.dst)
		for i := 0; i < c.dst; i++ {
			ws := rc.TapsFor(i)
			var sum int64
			for _, w := range ws {
				sum += int64(w)
			}
			// Each tap is rounded independently after normalization, so the
			// fixed-point sum may drift from 1.0 by up to half an ulp per tap.
			if d := sum - coeffOne; d > int64(len(ws)) || d < -int64(len(ws)) {
				t.Fatalf("%d->%d: taps at %d sum to %d (want ~%d)", c.src, c.dst, i, sum, int64(coeffOne))
			}
			if rc.Bounds[i] < 0 || int(rc.Bounds[i])+len(ws) > c.src {
				t.Fatalf("%d->%d: taps at %d out of range", c.src, c.dst, i)
			}
		}
	}
}

func TestCrop(t *testing.T) {
	im := SynthesizeImage(20, 20, 2)
	c := Crop(im, 5, 7, 6, 4)
	if c.W != 6 || c.H != 4 {
		t.Fatalf("crop is %dx%d", c.W, c.H)
	}
	r0, g0, b0 := im.At(5, 7)
	r1, g1, b1 := c.At(0, 0)
	if r0 != r1 || g0 != g1 || b0 != b1 {
		t.Fatal("crop origin pixel mismatch")
	}
}

func TestCropOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Crop(SynthesizeImage(10, 10, 1), 5, 5, 10, 10)
}

// TestFlipHorizontal: FlipHorizontalInPlace mirrors every pixel, at widths
// below, around and above the kernel's 16-byte load and the in-place stack
// buffer. Where the
// CPU has AVX2 it runs once with the kernel and once, as subtest swar,
// without.
func TestFlipHorizontal(t *testing.T) {
	checkFlip(t)
	t.Run("swar", func(t *testing.T) {
		if !withoutAVX2(t) {
			t.Skip("no AVX2 on this CPU: the pass above ran the scalar loop")
		}
		checkFlip(t)
	})
}

func checkFlip(t *testing.T) {
	for i, w := range []int{1, 2, 5, 6, 11, 224, flipStack/3 + 1} {
		im := SynthesizeImage(w, 5, int64(i+3))
		orig := &Image{W: im.W, H: im.H, Pix: append([]uint8(nil), im.Pix...)}
		FlipHorizontalInPlace(im)
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				r0, g0, b0 := orig.At(x, y)
				r1, g1, b1 := im.At(im.W-1-x, y)
				if r0 != r1 || g0 != g1 || b0 != b1 {
					t.Fatalf("width %d: flip mismatch at (%d,%d)", w, x, y)
				}
			}
		}
		im.Release()
	}
}

func TestRandomResizedCropParamsInBounds(t *testing.T) {
	r := rng.New(1, "rrc")
	for i := 0; i < 500; i++ {
		x0, y0, cw, ch := RandomResizedCropParams(123, 87, r)
		if cw <= 0 || ch <= 0 || x0 < 0 || y0 < 0 || x0+cw > 123 || y0+ch > 87 {
			t.Fatalf("crop params out of bounds: %d,%d %dx%d", x0, y0, cw, ch)
		}
	}
}

func TestVolumeCropAndFlip(t *testing.T) {
	v := SynthesizeVolume(8, 10, 12, 4)
	c := CropVolume(v, 1, 2, 3, 4, 5, 6)
	if c.D != 4 || c.H != 5 || c.W != 6 {
		t.Fatalf("crop dims %dx%dx%d", c.D, c.H, c.W)
	}
	if c.Vox[0] != v.Vox[(1*v.H+2)*v.W+3] {
		t.Fatal("crop origin voxel mismatch")
	}
	for axis := 0; axis < 3; axis++ {
		orig := append([]float32(nil), v.Vox...)
		FlipVolumeAxis(FlipVolumeAxis(v, axis), axis)
		for i := range orig {
			if v.Vox[i] != orig[i] {
				t.Fatalf("axis %d double-flip not identity", axis)
			}
		}
	}
}

func TestForegroundCenterFindsBlob(t *testing.T) {
	v := SynthesizeVolume(16, 16, 16, 99)
	z, y, x, ok := v.ForegroundCenter(100)
	if !ok {
		t.Fatal("no foreground found in synthesized volume")
	}
	if z < 0 || z >= 16 || y < 0 || y >= 16 || x < 0 || x >= 16 {
		t.Fatalf("center (%d,%d,%d) out of range", z, y, x)
	}
	// The synthesized blob is bright (up to ~200); background is ~20.
	if v.Vox[(z*16+y)*16+x] <= 100 {
		t.Fatal("centroid voxel is not foreground")
	}
}

func TestForegroundCenterEmpty(t *testing.T) {
	v := &Volume{D: 4, H: 4, W: 4, Vox: make([]float32, 64)}
	if _, _, _, ok := v.ForegroundCenter(1); ok {
		t.Fatal("empty volume reported foreground")
	}
}

func TestGaussianNoiseChangesStats(t *testing.T) {
	v := &Volume{D: 8, H: 8, W: 8, Vox: make([]float32, 512)}
	AddGaussianNoise(v, 5, rng.New(3, "gn"))
	var sumsq float64
	for _, x := range v.Vox {
		sumsq += float64(x) * float64(x)
	}
	sd := math.Sqrt(sumsq / float64(len(v.Vox)))
	if sd < 3 || sd > 7 {
		t.Fatalf("noise stddev %.2f, want ~5", sd)
	}
}

func TestScaleVolume(t *testing.T) {
	v := &Volume{D: 2, H: 2, W: 2, Vox: make([]float32, 8)}
	for i := range v.Vox {
		v.Vox[i] = 2
	}
	ScaleVolume(v, 1.5)
	for _, x := range v.Vox {
		if x != 3 {
			t.Fatalf("scaled voxel = %v", x)
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestSJPG420RoundTrip(t *testing.T) {
	im := SynthesizeImage(97, 66, 21)
	data := EncodeSJPGSubsampled(im, 90, Sub420)
	dec, err := DecodeSJPG(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.W != im.W || dec.H != im.H {
		t.Fatalf("decoded %dx%d", dec.W, dec.H)
	}
	if p := PSNR(im, dec); p < 24 {
		t.Fatalf("4:2:0 PSNR %.1f dB too low", p)
	}
}

func TestSJPG420SmallerThan444(t *testing.T) {
	im := SynthesizeImage(128, 128, 22)
	full := EncodeSJPGSubsampled(im, 85, Sub444)
	sub := EncodeSJPGSubsampled(im, 85, Sub420)
	if len(sub) >= len(full) {
		t.Fatalf("4:2:0 (%d B) should be smaller than 4:4:4 (%d B)", len(sub), len(full))
	}
	// Chroma halving cuts the two chroma planes to ~1/4: expect a clear
	// saving but not below 40% of the 4:4:4 size.
	if len(sub) < len(full)*2/5 {
		t.Fatalf("4:2:0 implausibly small: %d vs %d", len(sub), len(full))
	}
}

func TestSJPG420ChromaFidelityBelow444(t *testing.T) {
	im := SynthesizeImage(96, 96, 23)
	d444, _ := DecodeSJPG(EncodeSJPGSubsampled(im, 90, Sub444))
	d420, _ := DecodeSJPG(EncodeSJPGSubsampled(im, 90, Sub420))
	if PSNR(im, d420) > PSNR(im, d444) {
		t.Fatalf("4:2:0 (%.1f dB) cannot beat 4:4:4 (%.1f dB)", PSNR(im, d420), PSNR(im, d444))
	}
}

func TestUpsampleDownsampleApproxIdentity(t *testing.T) {
	// Down then up on a smooth plane stays close.
	w, h := 40, 30
	plane := make([]int32, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			plane[y*w+x] = int32(x + y)
		}
	}
	down, dw, dh := downsample2x(plane, w, h)
	up := upsample2x(down, dw, dh, w, h)
	var worst int
	for i := range plane {
		if d := absInt(int(up[i]) - int(plane[i])); d > worst {
			worst = d
		}
	}
	if worst > 2 {
		t.Fatalf("down/up max error %d on a linear ramp", worst)
	}
}
