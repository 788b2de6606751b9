package imaging

import (
	"bytes"
	"testing"
)

// FuzzDecodeSJPG: arbitrary payloads must never panic the decoder (decode
// errors are fine); valid payloads must round-trip dimensions.
func FuzzDecodeSJPG(f *testing.F) {
	f.Add(EncodeSJPG(SynthesizeImage(24, 16, 1), 80))
	f.Add(EncodeSJPGSubsampled(SynthesizeImage(17, 9, 2), 60, Sub420))
	f.Add([]byte("SJPG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := DecodeSJPG(data)
		if err != nil {
			return
		}
		if im.W <= 0 || im.H <= 0 || len(im.Pix) != im.W*im.H*3 {
			t.Fatalf("decoder accepted inconsistent image %dx%d len=%d", im.W, im.H, len(im.Pix))
		}
	})
}

// FuzzDecodeSJPGRegion: for any payload and any rectangle the region decoder
// never panics, fails iff the full decoder fails or the rectangle is empty or
// not inside the image, and otherwise returns Crop of the full decode.
func FuzzDecodeSJPGRegion(f *testing.F) {
	f.Add(EncodeSJPG(SynthesizeImage(24, 16, 1), 80), 3, 2, 10, 9)
	f.Add(EncodeSJPGSubsampled(SynthesizeImage(17, 9, 2), 60, Sub420), 0, 0, 17, 9)
	f.Add(EncodeSJPGSubsampled(SynthesizeImage(17, 9, 2), 60, Sub420), 16, 8, 1, 1)
	f.Add(EncodeSJPGSubsampled(SynthesizeImage(33, 21, 3), 85, Sub420), 7, 5, 19, 11)
	f.Add(EncodeSJPGSubsampled(SynthesizeImage(33, 21, 3), 85, Sub420), 30, 0, 4, 1)
	f.Add(EncodeSJPGSubsampled(SynthesizeImage(33, 21, 3), 85, Sub420)[:200], 0, 0, 1, 1)
	f.Add([]byte("SJPG"), 0, 0, 1, 1)
	f.Add([]byte{}, -1, -1, 0, 0)
	for _, e := range fastPathEdges() {
		f.Add(e.stream, 0, 0, 1, 1)
	}
	f.Add(hostileStream(40, 24), 3, 5, 30, 17)
	f.Fuzz(func(t *testing.T, data []byte, x0, y0, w, h int) {
		full, fullErr := DecodeSJPG(data)
		got, err := DecodeSJPGRegion(data, x0, y0, w, h)
		inside := fullErr == nil && w > 0 && h > 0 && x0 >= 0 && y0 >= 0 &&
			w <= full.W && h <= full.H && x0 <= full.W-w && y0 <= full.H-h
		if !inside {
			if err == nil {
				t.Fatalf("region (%d,%d,%d,%d) decoded; full decode err=%v", x0, y0, w, h, fullErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("region (%d,%d,%d,%d) of a valid %dx%d stream: %v", x0, y0, w, h, full.W, full.H, err)
		}
		want := Crop(full, x0, y0, w, h)
		if got.W != w || got.H != h || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("region (%d,%d,%d,%d) of %dx%d differs from Crop of the full decode", x0, y0, w, h, full.W, full.H)
		}
	})
}
