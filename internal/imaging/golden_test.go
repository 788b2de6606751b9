package imaging

import (
	"fmt"
	"math"
	"testing"

	"lotus/internal/rng"
)

// Golden-equivalence tests: the int32 fixed-point kernels against float64
// reference implementations of the same algorithms. The references mirror
// the staged structure (separable passes, per-pass rounding and clamping)
// so the only divergence is coefficient quantization, which must stay
// within one intensity level per pass.

// refResize is the float64 reference resampler: same separable structure,
// same triangle-filter windows, per-pass round-and-clamp to bytes.
func refResize(im *Image, w, h int) *Image {
	mid := refResampleH(im, w)
	return refResampleV(mid, h)
}

// refTriangle is the bilinear filter's weight at distance d, in filter units.
func refTriangle(d float64) float64 {
	return math.Max(1-math.Abs(d), 0)
}

func refWeights(srcLen, dstLen int) (bounds []int, weights [][]float64) {
	scale := float64(srcLen) / float64(dstLen)
	support := math.Max(scale, 1)
	bounds = make([]int, dstLen)
	weights = make([][]float64, dstLen)
	for i := 0; i < dstLen; i++ {
		center := (float64(i) + 0.5) * scale
		lo := int(math.Floor(center - support))
		if lo < 0 {
			lo = 0
		}
		hi := int(math.Ceil(center + support))
		if hi > srcLen {
			hi = srcLen
		}
		ws := make([]float64, hi-lo)
		var sum float64
		for j := range ws {
			ws[j] = refTriangle((float64(lo+j) + 0.5 - center) / support)
			sum += ws[j]
		}
		if sum != 0 {
			for j := range ws {
				ws[j] /= sum
			}
		} else {
			ws[0] = 1
		}
		bounds[i] = lo
		weights[i] = ws
	}
	return bounds, weights
}

func refClamp(v float64) uint8 {
	r := math.Round(v)
	if r < 0 {
		return 0
	}
	if r > 255 {
		return 255
	}
	return uint8(r)
}

func refResampleH(im *Image, w int) *Image {
	bounds, weights := refWeights(im.W, w)
	out := NewImage(w, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < w; x++ {
			var r, g, b float64
			for j, wt := range weights[x] {
				si := (y*im.W + bounds[x] + j) * 3
				r += wt * float64(im.Pix[si])
				g += wt * float64(im.Pix[si+1])
				b += wt * float64(im.Pix[si+2])
			}
			o := (y*w + x) * 3
			out.Pix[o] = refClamp(r)
			out.Pix[o+1] = refClamp(g)
			out.Pix[o+2] = refClamp(b)
		}
	}
	return out
}

func refResampleV(im *Image, h int) *Image {
	bounds, weights := refWeights(im.H, h)
	out := NewImage(im.W, h)
	for y := 0; y < h; y++ {
		for x := 0; x < im.W; x++ {
			var r, g, b float64
			for j, wt := range weights[y] {
				si := ((bounds[y]+j)*im.W + x) * 3
				r += wt * float64(im.Pix[si])
				g += wt * float64(im.Pix[si+1])
				b += wt * float64(im.Pix[si+2])
			}
			o := (y*im.W + x) * 3
			out.Pix[o] = refClamp(r)
			out.Pix[o+1] = refClamp(g)
			out.Pix[o+2] = refClamp(b)
		}
	}
	return out
}

// maxAbsDiff returns the largest per-channel intensity difference.
func maxAbsDiff(a, b *Image) int {
	if a.W != b.W || a.H != b.H {
		panic("size mismatch")
	}
	worst := 0
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestResizeMatchesFloatReference(t *testing.T) {
	cases := []struct {
		srcW, srcH, w, h int
		tol              int
	}{
		{512, 512, 224, 224, 1},
		{500, 375, 224, 224, 1},
		// Upscales interpolate at simple fractions, so exact .5 ties are
		// common and coefficient quantization can flip the rounding in each
		// of the two passes independently.
		{64, 64, 224, 224, 2},
		{224, 224, 224, 224, 0},
	}
	for _, c := range cases {
		// The f0 (bilinear) suffix keeps the subtest names stable.
		t.Run(fmt.Sprintf("%dx%d_to_%dx%d_f0", c.srcW, c.srcH, c.w, c.h), func(t *testing.T) {
			im := SynthesizeImage(c.srcW, c.srcH, 7)
			defer im.Release()
			got := Resize(im, c.w, c.h)
			defer got.Release()
			want := refResize(im, c.w, c.h)
			if d := maxAbsDiff(got, want); d > c.tol {
				t.Errorf("fixed-point resize deviates from float64 reference by %d levels (tolerance %d)", d, c.tol)
			}
		})
	}
}

// TestResizePropertyRandomGeometries drives the fixed-point resampler over
// randomized sizes, asserting it tracks the float64 reference within 1
// intensity level.
func TestResizePropertyRandomGeometries(t *testing.T) {
	r := rng.NewFromSeed(42)
	for trial := 0; trial < 25; trial++ {
		srcW := 8 + r.Intn(200)
		srcH := 8 + r.Intn(200)
		w := 1 + r.Intn(256)
		h := 1 + r.Intn(256)
		im := SynthesizeImage(srcW, srcH, int64(trial))
		got := Resize(im, w, h)
		want := refResize(im, w, h)
		if d := maxAbsDiff(got, want); d > 1 {
			t.Fatalf("trial %d: %dx%d -> %dx%d: deviation %d > 1", trial, srcW, srcH, w, h, d)
		}
		got.Release()
		im.Release()
	}
}

// refFDCT is a float64 DCT-II with fdct8x8's scaling convention (the plain
// JPEG c(u)c(v)/4 normalization; the integer pipeline's pass1Bits scaling
// cancels between its two passes).
func refFDCT(blk *[64]int32) [64]float64 {
	var out [64]float64
	for v := 0; v < 8; v++ {
		for u := 0; u < 8; u++ {
			var sum float64
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					sum += float64(blk[y*8+x]) *
						math.Cos(float64(2*x+1)*float64(u)*math.Pi/16) *
						math.Cos(float64(2*y+1)*float64(v)*math.Pi/16)
				}
			}
			cu, cv := 1.0, 1.0
			if u == 0 {
				cu = 1 / math.Sqrt2
			}
			if v == 0 {
				cv = 1 / math.Sqrt2
			}
			out[v*8+u] = sum * cu * cv / 4
		}
	}
	return out
}

// TestFDCTMatchesFloatReference checks the two-pass integer forward DCT
// against the direct float64 transform.
func TestFDCTMatchesFloatReference(t *testing.T) {
	r := rng.NewFromSeed(7)
	for trial := 0; trial < 20; trial++ {
		var blk, orig [64]int32
		for i := range blk {
			blk[i] = int32(r.Intn(256) - 128)
			orig[i] = blk[i]
		}
		fdct8x8(&blk)
		want := refFDCT(&orig)
		for i := range blk {
			if d := math.Abs(float64(blk[i]) - want[i]); d > 2 {
				t.Fatalf("trial %d coeff %d: fixed %d vs float %.2f (diff %.2f)",
					trial, i, blk[i], want[i], d)
			}
		}
	}
}

// refYCbCr is the float64 JFIF color transform.
func refYCbCr(r, g, b uint8) (y, cb, cr float64) {
	rf, gf, bf := float64(r), float64(g), float64(b)
	y = 0.299*rf + 0.587*gf + 0.114*bf
	cb = 128 - 0.168736*rf - 0.331264*gf + 0.5*bf
	cr = 128 + 0.5*rf - 0.418688*gf - 0.081312*bf
	return
}

func TestColorConvertMatchesFloatReference(t *testing.T) {
	r := rng.NewFromSeed(11)
	for trial := 0; trial < 2000; trial++ {
		rr := uint8(r.Intn(256))
		gg := uint8(r.Intn(256))
		bb := uint8(r.Intn(256))
		y, cb, cr := rgbToYCbCr(rr, gg, bb)
		fy, fcb, fcr := refYCbCr(rr, gg, bb)
		if math.Abs(float64(y)-fy) > 1 || math.Abs(float64(cb)-fcb) > 1 || math.Abs(float64(cr)-fcr) > 1 {
			t.Fatalf("rgb(%d,%d,%d): fixed (%d,%d,%d) vs float (%.2f,%.2f,%.2f)",
				rr, gg, bb, y, cb, cr, fy, fcb, fcr)
		}
	}
}
