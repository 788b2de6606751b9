package imaging

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"testing"
	"time"

	"lotus/internal/rng"
)

// The resampler's byte contract: trimming zero taps off the filter windows
// and the two-tap kernels change how much work a resize does, never its
// bytes. The reference below is the arithmetic as it stood before either:
// floor/ceil windows with every tap kept, summed by the plain clamped int32
// loops.

// untrimmedCoeffs builds the coefficient table with floor/ceil window bounds
// and no trimming — the layout every output byte of the resampler is pinned
// to.
func untrimmedCoeffs(srcLen, dstLen int) *ResampleCoeffs {
	scale := float64(srcLen) / float64(dstLen)
	support := math.Max(scale, 1)
	ksize := int(math.Ceil(support))*2 + 1
	rc := &ResampleCoeffs{
		KSize:  ksize,
		Bounds: make([]int32, dstLen),
		Counts: make([]int32, dstLen),
		Taps:   make([]int32, dstLen*ksize),
		TapsP:  make([]uint64, dstLen*ksize*3),
	}
	ws := make([]float64, ksize)
	for i := 0; i < dstLen; i++ {
		center := (float64(i) + 0.5) * scale
		lo := max(int(math.Floor(center-support)), 0)
		hi := min(int(math.Ceil(center+support)), srcLen)
		n := hi - lo
		var sum float64
		for j := 0; j < n; j++ {
			ws[j] = refTriangle((float64(lo+j) + 0.5 - center) / support)
			sum += ws[j]
		}
		taps := rc.Taps[i*ksize : (i+1)*ksize]
		if sum != 0 {
			for j := 0; j < n; j++ {
				taps[j] = int32(math.Round(ws[j] / sum * coeffOne))
			}
		} else {
			taps[0] = coeffOne
		}
		rc.Bounds[i] = int32(lo)
		rc.Counts[i] = int32(n)
	}
	for i, t := range rc.Taps {
		rc.TapsP[i*3], rc.TapsP[i*3+1], rc.TapsP[i*3+2] = uint64(uint32(t)), uint64(uint32(t)), uint64(uint32(t))
	}
	return rc
}

// plainH and plainV are the clamped int32 loops: one output byte at a time,
// every tap of its window, no lane packing.
func plainH(dst, src *Image, rc *ResampleCoeffs) {
	for y := 0; y < src.H; y++ {
		for x := 0; x < dst.W; x++ {
			r, g, b := int32(coeffHalf), int32(coeffHalf), int32(coeffHalf)
			for k, t := range rc.TapsFor(x) {
				si := (y*src.W + int(rc.Bounds[x]) + k) * 3
				r += t * int32(src.Pix[si])
				g += t * int32(src.Pix[si+1])
				b += t * int32(src.Pix[si+2])
			}
			o := (y*dst.W + x) * 3
			dst.Pix[o], dst.Pix[o+1], dst.Pix[o+2] = clip8(r), clip8(g), clip8(b)
		}
	}
}

func plainV(dst, src *Image, rc *ResampleCoeffs) {
	w3 := src.W * 3
	for y := 0; y < dst.H; y++ {
		for i := 0; i < w3; i++ {
			a := int32(coeffHalf)
			for k, t := range rc.TapsFor(y) {
				a += t * int32(src.Pix[(int(rc.Bounds[y])+k)*w3+i])
			}
			dst.Pix[y*w3+i] = clip8(a)
		}
	}
}

type resamplePass func(dst, src *Image, rc *ResampleCoeffs)

// resizeVia mirrors Resize's structure (identity copies, a pass only on
// an axis that changes, horizontal first) with the coefficients and passes
// supplied by the caller.
func resizeVia(im *Image, w, h int, coeffs func(src, dst int) *ResampleCoeffs, hp, vp resamplePass) *Image {
	mid := im
	if w != im.W {
		mid = GetImage(w, im.H)
		hp(mid, im, coeffs(im.W, w))
	}
	if h == im.H {
		if mid == im {
			mid = GetImage(w, h)
			copy(mid.Pix, im.Pix)
		}
		return mid
	}
	out := GetImage(w, h)
	vp(out, mid, coeffs(im.H, h))
	if mid != im {
		mid.Release()
	}
	return out
}

// untrimmedResize is the reference: untrimmed windows through the plain loops.
func untrimmedResize(im *Image, w, h int) *Image {
	return resizeVia(im, w, h, untrimmedCoeffs, plainH, plainV)
}

// noiseImage fills a w x h image with bytes that reach both ends of the
// range often (a quarter 255, an eighth 0), so saturating windows and the
// clamp edges are exercised, not only mid-grey.
func noiseImage(w, h int, r *rng.Stream) *Image {
	im := NewImage(w, h)
	for i := range im.Pix {
		switch v := r.Intn(8); v {
		case 0, 1:
			im.Pix[i] = 255
		case 2:
			im.Pix[i] = 0
		default:
			im.Pix[i] = uint8(r.Intn(256))
		}
	}
	return im
}

// servedWindow draws a RandomResizedCrop window the way an IC sample at the
// 256-px cap gets one: a source whose long side is 192..256 with an aspect
// in [0.7, 1.5], then torchvision's area/aspect draw inside it.
func servedWindow(r *rng.Stream) (srcW, srcH, cw, ch int) {
	long := 192 + r.Intn(65)
	aspect := r.Uniform(0.7, 1.5)
	srcW, srcH = long, int(float64(long)/aspect)
	if aspect < 1 {
		srcW, srcH = int(float64(long)*aspect), long
	}
	_, _, cw, ch = RandomResizedCropParams(srcW, srcH, r)
	return srcW, srcH, cw, ch
}

// TestResizeMatchesUntrimmedReference: Resize's bytes equal the untrimmed
// reference's over random geometries of every shape the kernels branch on —
// served windows, identity, one axis only, 1-px sides, odd widths (the
// two-tap vertical kernel's byte tail), vertical windows wider than
// vertRegTaps and windows past packable's 4096 taps on either axis (the
// clamped int32 loops). Where the CPU has AVX2 it runs once with the kernels
// and once, as subtest swar, without.
func TestResizeMatchesUntrimmedReference(t *testing.T) {
	checkUntrimmed(t)
	t.Run("swar", func(t *testing.T) {
		if !withoutAVX2(t) {
			t.Skip("no AVX2 on this CPU: the pass above ran the SWAR loop")
		}
		checkUntrimmed(t)
	})
}

func checkUntrimmed(t *testing.T) {
	r := rng.NewFromSeed(29)
	side := func(lo, hi int) int { return lo + r.Intn(hi-lo+1) }
	const trials = 2400
	for trial := 0; trial < trials; trial++ {
		srcW, srcH, w, h := side(1, 96), side(1, 96), side(1, 96), side(1, 96)
		shape := "random"
		switch trial % 8 {
		case 1:
			shape = "identity"
			w, h = srcW, srcH
		case 2:
			shape = "horizontal-only"
			h = srcH
		case 3:
			shape = "vertical-only"
			w = srcW
		case 4:
			shape = "1-px side"
			switch r.Intn(4) {
			case 0:
				srcW = 1
			case 1:
				srcH = 1
			case 2:
				w = 1
			default:
				h = 1
			}
		case 5:
			shape = "odd widths"
			srcW, w = srcW|1, w|1
		case 6:
			shape = "wide vertical window"
			srcH, h = side(400, 700), side(1, 20)
			srcW, w = side(1, 24), side(1, 24)
			if trial%32 == 6 {
				shape = "past 4096 taps"
				long, short := side(8200, 9000), side(1, 4)
				if r.Intn(2) == 0 {
					srcW, w, srcH, h = long, side(1, 2), short, side(1, 4)
				} else {
					srcW, w, srcH, h = short, side(1, 4), long, side(1, 2)
				}
			}
		case 7:
			if trial%64 == 7 {
				shape = "served"
				_, _, srcW, srcH = servedWindow(r)
				w, h = 224, 224
			}
		}
		im := noiseImage(srcW, srcH, r)
		got := Resize(im, w, h)
		want := untrimmedResize(im, w, h)
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("trial %d (%s): %dx%d -> %dx%d differs from the untrimmed reference",
				trial, shape, srcW, srcH, w, h)
		}
		got.Release()
		want.Release()
	}
}

// TestResizePinnedCRCs pins Resize's output on fixed inputs to CRC32C
// values: served RRC windows (upscaled on both axes), one-axis resizes, the
// 512 -> 224 downscale the perf rung times and a vertical window wider than
// vertRegTaps, recorded before windows were trimmed, and a window past
// packable's 4096 taps on each axis, which only the clamped int32 loops
// take. Where the CPU has AVX2 it runs once with the kernels and once, as
// subtest swar, without, so both paths are pinned to the same bytes.
func TestResizePinnedCRCs(t *testing.T) {
	checkPinnedCRCs(t)
	t.Run("swar", func(t *testing.T) {
		if !withoutAVX2(t) {
			t.Skip("no AVX2 on this CPU: the pass above ran the SWAR loop")
		}
		checkPinnedCRCs(t)
	})
}

func checkPinnedCRCs(t *testing.T) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for i, c := range []struct {
		srcW, srcH, w, h int
		crc              uint32
	}{
		{137, 151, 224, 224, 0xb3d4c57a},
		{97, 183, 224, 224, 0xcff2594e},
		{256, 192, 224, 224, 0x1f971848},
		{200, 224, 224, 224, 0xfd35b820},
		{224, 97, 224, 224, 0x8468dbf1},
		{512, 512, 224, 224, 0x4a077e1a},
		{1, 1, 224, 224, 0x6d68eea6},
		{613, 37, 17, 5, 0x6a541cc7},
		{31, 700, 9, 13, 0xe3b1c0f6},
		{9000, 5, 3, 5, 0x3e8fb873},
		{5, 9000, 5, 3, 0x5819f659},
	} {
		// The f0 (bilinear) suffix keeps the subtest names stable.
		t.Run(fmt.Sprintf("%dx%d_to_%dx%d_f0", c.srcW, c.srcH, c.w, c.h), func(t *testing.T) {
			im := SynthesizeImage(c.srcW, c.srcH, int64(i+1))
			out := Resize(im, c.w, c.h)
			if got := crc32.Checksum(out.Pix, castagnoli); got != c.crc {
				t.Errorf("crc32c %#08x, want %#08x", got, c.crc)
			}
			out.Release()
			im.Release()
		})
	}
}

// randomPackableTable builds a vertical table of dstLen outputs over srcLen
// rows with KSize ksize <= vertRegTaps: each window has a random width and
// place and random non-negative weights, some of them zero, quantized as
// PrecomputeCoeffs quantizes the triangle's.
func randomPackableTable(srcLen, dstLen, ksize int, r *rng.Stream) *ResampleCoeffs {
	rc := &ResampleCoeffs{
		KSize:  ksize,
		Bounds: make([]int32, dstLen),
		Counts: make([]int32, dstLen),
		Taps:   make([]int32, dstLen*ksize),
	}
	ws := make([]float64, ksize)
	for i := range dstLen {
		n := 1 + r.Intn(min(ksize, srcLen))
		var sum float64
		for j := range n {
			ws[j] = 0
			if r.Intn(4) != 0 {
				ws[j] = r.Uniform(0, 1)
			}
			sum += ws[j]
		}
		taps := rc.Taps[i*ksize : i*ksize+n]
		if sum == 0 {
			taps[0] = coeffOne
		} else {
			for j := range taps {
				taps[j] = int32(math.Round(ws[j] / sum * coeffOne))
			}
		}
		rc.Bounds[i] = int32(r.Intn(srcLen - n + 1))
		rc.Counts[i] = int32(n)
	}
	return rc
}

// TestVerticalClampedMatchesPacked: on random packable tables the clamped
// int32 vertical loop, which serves windows wider than vertRegTaps, writes
// the packed register pass's bytes, two-tap rows through vertical2
// included: clip8 and the truncating packed store agree wherever the
// packable bound holds.
func TestVerticalClampedMatchesPacked(t *testing.T) {
	r := rng.NewFromSeed(47)
	for trial := 0; trial < 300; trial++ {
		ksize := 1 + r.Intn(vertRegTaps)
		srcH, h, w := ksize+r.Intn(40), 1+r.Intn(40), 1+r.Intn(80)
		rc := randomPackableTable(srcH, h, ksize, r)
		src := noiseImage(w, srcH, r)
		packed, clamped := NewImage(w, h), NewImage(w, h)
		resampleVerticalPacked(packed, src, rc)
		resampleVerticalClamped(clamped, src, rc)
		if i := firstDiff(packed.Pix, clamped.Pix); i >= 0 {
			row := i / (3 * w)
			t.Fatalf("trial %d: %d-row source, KSize %d, %d px wide: byte %d (output row %d, taps %v) is %d packed, %d clamped",
				trial, srcH, ksize, w, i, row, rc.TapsFor(row), packed.Pix[i], clamped.Pix[i])
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []uint8) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestCoeffCacheHoldsEveryServedSide: one pass over every window side up to
// the 256-px cap fills the coefficient cache, and a second pass builds no
// table at all.
func TestCoeffCacheHoldsEveryServedSide(t *testing.T) {
	pass := func() (misses uint64) {
		_, before := CoeffCacheStats()
		for s := 1; s <= 256; s++ {
			im := GetImage(s, s)
			Resize(im, 224, 224).Release()
			im.Release()
		}
		_, after := CoeffCacheStats()
		return after - before
	}
	pass()
	if m := pass(); m != 0 {
		t.Fatalf("second pass over sides 1..256 missed the coefficient cache %d times, want 0", m)
	}
}

// TestServedSidesRunHorizontal2 guards against a silent fallback to the
// packed pass. Where the CPU has AVX2, every window side 2..225 resized to
// 224 carries the expansion, and sides 226..256, whose windows have three
// taps, carry none; without AVX2 no table carries one. A served table whose
// expansion has its taps zeroed must then turn the horizontal pass's output
// to zeros: the pass runs horizontal2, not the packed loop.
func TestServedSidesRunHorizontal2(t *testing.T) {
	for s := 1; s <= 256; s++ {
		has := CachedCoeffs(s, 224).pairs != nil
		if want := haveAVX2 && s >= 2 && s <= 225; has != want {
			t.Errorf("side %d -> 224: expansion %v, want %v", s, has, want)
		}
	}
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU: the horizontal pass is the packed loop")
	}
	im := SynthesizeImage(137, 151, 1)
	rc := *CachedCoeffs(137, 224)
	zero := make([]int32, len(rc.pairs.off))
	rc.pairs = &tapPairs{off: rc.pairs.off, t0: zero, t1: zero}
	mid := NewImage(224, 151)
	resampleHorizontalInto(mid, im, &rc)
	if i := bytes.IndexFunc(mid.Pix, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("byte %d of a served horizontal pass ignored its expansion's taps: it did not run horizontal2", i)
	}
}

var resizeSink *Image

// BenchmarkResizeServed fails itself unless Resize costs at most 0.65x
// the reference on served shapes: RRC windows of 256-cap sources resized to
// 224². The reference is the untrimmed tables through the resampler's
// passes — the resampler as it was before trimming, except that a few edge
// outputs whose untrimmed window already had two taps take the two-tap
// vertical kernel too, which only flatters the reference. The untrimmed
// tables carry no expansion, so the reference's horizontal pass is the
// packed loop, not horizontal2, which can only lower the ratio. Both sides are timed in this process,
// interleaved, with every table built beforehand, so the shared runner's
// speed and the table builds cancel out of the ratio.
func BenchmarkResizeServed(b *testing.B) {
	r := rng.NewFromSeed(11)
	const windows = 128
	ims := make([]*Image, windows)
	ref := map[int]*ResampleCoeffs{}
	for i := range ims {
		_, _, cw, ch := servedWindow(r)
		ims[i] = SynthesizeImage(cw, ch, int64(i))
		for _, s := range []int{cw, ch} {
			if ref[s] == nil {
				ref[s] = untrimmedCoeffs(s, 224)
			}
		}
	}
	refCoeffs := func(src, _ int) *ResampleCoeffs { return ref[src] }
	run := func(im *Image, reference bool) time.Duration {
		start := time.Now()
		var out *Image
		if reference {
			out = resizeVia(im, 224, 224, refCoeffs, resampleHorizontalInto, resampleVerticalInto)
		} else {
			out = Resize(im, 224, 224)
		}
		d := time.Since(start)
		resizeSink = out
		out.Release()
		return d
	}
	for _, im := range ims { // warm the pools, the caches and the coefficient LRU
		run(im, true)
		run(im, false)
	}
	var old, cur time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, im := range ims {
			if k&1 == 0 {
				old += run(im, true)
				cur += run(im, false)
			} else {
				cur += run(im, false)
				old += run(im, true)
			}
		}
	}
	n := float64(b.N * windows)
	ratio := float64(cur) / float64(old)
	b.ReportMetric(float64(old.Microseconds())/n, "ref-µs")
	b.ReportMetric(float64(cur.Microseconds())/n, "resize-µs")
	b.ReportMetric(ratio, "resize/ref")
	if ratio > 0.65 {
		b.Fatalf("a served resize costs %.2fx the untrimmed reference, want <= 0.65x", ratio)
	}
}
