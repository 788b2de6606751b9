package imaging

import (
	"testing"
	"testing/quick"
)

// TestPropertySJPGRoundTripAnySize: the codec must decode whatever it
// encodes, at the original dimensions, with sane fidelity, for arbitrary
// (bounded) sizes and content seeds.
func TestPropertySJPGRoundTripAnySize(t *testing.T) {
	if err := quick.Check(func(wRaw, hRaw uint8, seed int64) bool {
		w := int(wRaw%120) + 8
		h := int(hRaw%120) + 8
		im := SynthesizeImage(w, h, seed)
		dec, err := DecodeSJPG(EncodeSJPGSubsampled(im, 85, Sub444))
		if err != nil {
			return false
		}
		return dec.W == w && dec.H == h && PSNR(im, dec) > 20
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCropFlipCommute: flipping then cropping the mirrored rectangle
// equals cropping then flipping. Where the CPU has AVX2 it runs once with the
// flip kernel and once, as subtest swar, without.
func TestPropertyCropFlipCommute(t *testing.T) {
	checkCropFlipCommute(t)
	t.Run("swar", func(t *testing.T) {
		if !withoutAVX2(t) {
			t.Skip("no AVX2 on this CPU: the pass above ran the scalar loop")
		}
		checkCropFlipCommute(t)
	})
}

func checkCropFlipCommute(t *testing.T) {
	if err := quick.Check(func(seed int64, x0Raw, y0Raw, cwRaw, chRaw uint8) bool {
		const W, H = 48, 40
		im := SynthesizeImage(W, H, seed)
		cw := int(cwRaw%24) + 4
		ch := int(chRaw%20) + 4
		x0 := int(x0Raw) % (W - cw)
		y0 := int(y0Raw) % (H - ch)

		a := FlipHorizontalInPlace(Crop(im, x0, y0, cw, ch))
		b := Crop(FlipHorizontalInPlace(im), W-x0-cw, y0, cw, ch)
		for i := range a.Pix {
			if a.Pix[i] != b.Pix[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyResizeBounds: resampled output never exceeds the input's value
// range (bilinear is a convex combination).
func TestPropertyResizeBounds(t *testing.T) {
	if err := quick.Check(func(lo, span uint8, wRaw, hRaw uint8) bool {
		hi := lo
		if int(lo)+int(span)%64 <= 255 {
			hi = lo + span%64
		}
		im := NewImage(31, 27)
		for i := range im.Pix {
			if i%2 == 0 {
				im.Pix[i] = lo
			} else {
				im.Pix[i] = hi
			}
		}
		out := Resize(im, int(wRaw%40)+4, int(hRaw%40)+4)
		for _, v := range out.Pix {
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyVolumeFlipInvolution over all axes and random shapes.
func TestPropertyVolumeFlipInvolution(t *testing.T) {
	if err := quick.Check(func(dRaw, hRaw, wRaw uint8, axisRaw uint8, seed int64) bool {
		d := int(dRaw%8) + 2
		h := int(hRaw%8) + 2
		w := int(wRaw%8) + 2
		axis := int(axisRaw % 3)
		v := SynthesizeVolume(d, h, w, seed)
		orig := append([]float32(nil), v.Vox...)
		FlipVolumeAxis(FlipVolumeAxis(v, axis), axis)
		for i := range orig {
			if v.Vox[i] != orig[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEncodeDeterministic: same input bytes -> same output bytes.
func TestPropertyEncodeDeterministic(t *testing.T) {
	if err := quick.Check(func(seed int64, q uint8) bool {
		quality := int(q%80) + 20
		im := SynthesizeImage(40, 32, seed)
		a := EncodeSJPGSubsampled(im, quality, Sub444)
		b := EncodeSJPGSubsampled(im, quality, Sub444)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
