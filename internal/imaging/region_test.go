package imaging

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"lotus/internal/rng"
)

// refDecodeSJPG is the decoder DecodeSJPGRegion replaced, kept as the
// reference the new one is held to: three full planes with per-sample edge
// tests, each 4:2:0 chroma plane upsampled whole, one colour-convert pass
// over the full image.
func refDecodeSJPG(data []byte) (*Image, error) {
	hd, err := parseSJPGHeader(data)
	if err != nil {
		return nil, err
	}
	quants := [3][64]int32{
		scaledQuant(&lumaQuant, hd.quality),
		scaledQuant(&chromaQuant, hd.quality),
		scaledQuant(&chromaQuant, hd.quality),
	}
	r := &byteReader{buf: data, pos: hd.body}
	var planes [3][]int32
	for ch := 0; ch < 3; ch++ {
		pw, ph := hd.w, hd.h
		if hd.sub == Sub420 && ch > 0 {
			pw, ph = (hd.w+1)/2, (hd.h+1)/2
		}
		plane := make([]int32, pw*ph)
		if err := refDecodePlane(r, plane, pw, ph, &quants[ch]); err != nil {
			return nil, err
		}
		if hd.sub == Sub420 && ch > 0 {
			plane = upsample2x(plane, pw, ph, hd.w, hd.h)
		}
		planes[ch] = plane
	}
	im := NewImage(hd.w, hd.h)
	for i := 0; i < hd.w*hd.h; i++ {
		im.Pix[i*3], im.Pix[i*3+1], im.Pix[i*3+2] =
			yCbCrToRGB(planes[0][i]+128, planes[1][i]+128, planes[2][i]+128)
	}
	return im, nil
}

func refDecodePlane(r *byteReader, plane []int32, pw, ph int, quant *[64]int32) error {
	bw, bh := (pw+7)/8, (ph+7)/8
	prevDC := int64(0)
	var blk [64]int32
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			nz, dc, err := decodeMCU(&blk, r, prevDC, quant)
			if err != nil {
				return err
			}
			prevDC = dc
			if nz <= 1 {
				// libjpeg's dcval shortcut: a flat block at dc/8.
				flat := (blk[0] + 4) >> 3
				for i := range blk {
					blk[i] = flat
				}
			} else {
				idct8x8(&blk)
			}
			for y := 0; y < 8 && by*8+y < ph; y++ {
				for x := 0; x < 8 && bx*8+x < pw; x++ {
					plane[(by*8+y)*pw+bx*8+x] = storeClamp(blk[y*8+x])
				}
			}
		}
	}
	return nil
}

// upsample2x doubles a plane in both axes by separable linear interpolation
// (libjpeg's sep_upsample "fancy upsampling") with 2-bit fractional
// positions: samples sit at quarter offsets, so the four bilinear weights
// are sixteenths. Every output sample computes its own four clamped taps —
// the arithmetic as the replaced decoder wrote it, sharing nothing with
// chromaTap.
func upsample2x(plane []int32, pw, ph, w, h int) []int32 {
	out := make([]int32, w*h)
	for y := 0; y < h; y++ {
		sy4 := 2*y - 1 // source y in quarter units: y/2 - 0.25
		y0 := sy4 >> 2
		fy := int32(sy4 - y0*4)
		y1 := y0 + 1
		if y0 < 0 {
			y0 = 0
		}
		if y1 > ph-1 {
			y1 = ph - 1
		}
		if y0 > ph-1 {
			y0 = ph - 1
		}
		row0 := plane[y0*pw : (y0+1)*pw]
		row1 := plane[y1*pw : (y1+1)*pw]
		orow := out[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			sx4 := 2*x - 1
			x0 := sx4 >> 2
			fx := int32(sx4 - x0*4)
			x1 := x0 + 1
			if x0 < 0 {
				x0 = 0
			}
			if x1 > pw-1 {
				x1 = pw - 1
			}
			if x0 > pw-1 {
				x0 = pw - 1
			}
			top := (4-fx)*row0[x0] + fx*row0[x1]
			bot := (4-fx)*row1[x0] + fx*row1[x1]
			orow[x] = ((4-fy)*top + fy*bot + 8) >> 4
		}
	}
	return out
}

// checkRegion decodes one window and holds it to Crop of the reference.
func checkRegion(t *testing.T, name string, blob []byte, full *Image, x0, y0, w, h int) {
	t.Helper()
	got, err := DecodeSJPGRegion(blob, x0, y0, w, h)
	if err != nil {
		t.Fatalf("%s: region (%d,%d,%d,%d) of %dx%d: %v", name, x0, y0, w, h, full.W, full.H, err)
	}
	want := Crop(full, x0, y0, w, h)
	if got.W != w || got.H != h || !bytes.Equal(got.Pix, want.Pix) {
		t.Fatalf("%s: region (%d,%d,%d,%d) of %dx%d differs from Crop of the full decode", name, x0, y0, w, h, full.W, full.H)
	}
	got.Release()
	want.Release()
}

// TestRegionEqualsCrop: DecodeSJPGRegion is Crop(DecodeSJPG) byte for byte,
// and DecodeSJPG is still the decoder it replaced.
func TestRegionEqualsCrop(t *testing.T) {
	sizes := [][2]int{
		{1, 1}, {2, 3}, {5, 7}, {8, 8}, {9, 16}, {15, 15}, {16, 9}, {17, 33},
		{33, 17}, {40, 30}, {64, 48}, {97, 66}, {130, 101},
	}
	random := 0
	for _, sub := range []Subsampling{Sub444, Sub420} {
		for si, wh := range sizes {
			W, H := wh[0], wh[1]
			name := fmt.Sprintf("sub%d/%dx%d", sub, W, H)
			src := SynthesizeImage(W, H, int64(100+si))
			blob := EncodeSJPGSubsampled(src, 85, sub)
			full, err := refDecodeSJPG(blob)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := DecodeSJPG(blob)
			if err != nil {
				t.Fatal(err)
			}
			if whole.W != W || whole.H != H || !bytes.Equal(whole.Pix, full.Pix) {
				t.Fatalf("%s: DecodeSJPG differs from the reference decoder", name)
			}

			// Full frame, 1x1 at every corner and the centre, strips along
			// each edge, and windows that end inside the last partial block.
			rects := [][4]int{
				{0, 0, W, H},
				{0, 0, 1, 1}, {W - 1, 0, 1, 1}, {0, H - 1, 1, 1}, {W - 1, H - 1, 1, 1}, {W / 2, H / 2, 1, 1},
				{0, 0, W, 1}, {0, H - 1, W, 1}, {0, 0, 1, H}, {W - 1, 0, 1, H},
				{0, 0, (W + 1) / 2, (H + 1) / 2}, {W / 2, H / 2, W - W/2, H - H/2},
				{W / 3, H / 3, W - W/3, H - H/3},
			}
			if W > 2 && H > 2 {
				rects = append(rects, [4]int{1, 1, W - 2, H - 2}, [4]int{1, 0, W - 1, H - 1}, [4]int{0, 1, W - 1, H - 1})
			}
			for _, rc := range rects {
				checkRegion(t, name, blob, full, rc[0], rc[1], rc[2], rc[3])
			}
			// Every window of the small images, exhaustively.
			if W*H <= 64 {
				for y0 := 0; y0 < H; y0++ {
					for x0 := 0; x0 < W; x0++ {
						for h := 1; y0+h <= H; h++ {
							for w := 1; x0+w <= W; w++ {
								checkRegion(t, name, blob, full, x0, y0, w, h)
							}
						}
					}
				}
			}
			// The rectangles the pipeline will actually ask for.
			r := rng.New(int64(si), "region")
			for k := 0; k < 24; k++ {
				x0, y0, w, h := RandomResizedCropParams(W, H, r)
				checkRegion(t, name, blob, full, x0, y0, w, h)
				random++
			}
		}
	}
	if random < 500 {
		t.Fatalf("only %d random rectangles checked, want >= 500", random)
	}

	// A hand-built 4:2:0 stream whose blocks hold every coefficient at the
	// dequantClamp bound, so the inverse transform saturates storeClamp both
	// ways and the colour pass clampU8: the decoder's kernels on their
	// extreme inputs against the reference's scalar path.
	const W, H = 40, 24
	blob := hostileStream(W, H)
	if lo, hi := storeRange(t, blob); lo >= -1024 || hi <= 1023 {
		t.Fatalf("hostile stream's inverse transforms span [%d, %d]: storeClamp never saturates", lo, hi)
	}
	full, err := refDecodeSJPG(blob)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := DecodeSJPG(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Pix, full.Pix) {
		t.Fatal("hostile stream: DecodeSJPG differs from the reference decoder")
	}
	for _, rc := range [][4]int{{0, 0, W, H}, {3, 5, 30, 17}, {8, 8, 16, 8}, {W - 1, H - 1, 1, 1}} {
		checkRegion(t, "hostile", blob, full, rc[0], rc[1], rc[2], rc[3])
	}
}

// sjpgStream hand-builds an SJPG stream: the header of a w x h image at
// quality 85 in layout sub, then body, the planes' entropy data as given.
func sjpgStream(w, h int, sub Subsampling, body []byte) []byte {
	wr := &byteWriter{buf: []byte(sjpgMagic)}
	for _, v := range []int{w, h, 85, int(sub)} {
		wr.writeUvarint(uint64(v))
	}
	return append(wr.buf, body...)
}

// hostileStream is a w x h 4:2:0 stream whose every block has all 63 AC
// coefficients set and far past dequantClamp: by turns all positive, all
// negative, and in a checkerboard of signs, with DC deltas swinging the DC
// chain past the clamp both ways.
func hostileStream(w, h int) []byte {
	wr := &byteWriter{}
	blocks := ((w+7)/8)*((h+7)/8) + 2*(((w+1)/2+7)/8)*(((h+1)/2+7)/8)
	for k := range blocks {
		wr.writeVarint([]int64{5000, -10000, 10000}[k%3])
		for i := 1; i < 64; i++ {
			v := int64(5000)
			if k%3 == 1 || k%3 == 2 && (zigzag[i]/8+zigzag[i]%8)%2 == 1 {
				v = -v
			}
			wr.writeUvarint(0)
			wr.writeVarint(v)
		}
		wr.writeUvarint(eobRun)
	}
	return sjpgStream(w, h, Sub420, wr.buf)
}

// storeRange walks a stream's blocks as the reference decoder does and
// returns the range of their inverse transforms before storeClamp; it fails
// t unless some dequantized coefficient reaches ±dequantClamp.
func storeRange(t *testing.T, blob []byte) (lo, hi int32) {
	t.Helper()
	hd, err := parseSJPGHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	quant := scaledQuant(&lumaQuant, hd.quality)
	r := &byteReader{buf: blob, pos: hd.body}
	var prevDC int64
	clamped := false
	for r.pos < len(blob) {
		var blk [64]int32
		_, dc, err := decodeMCU(&blk, r, prevDC, &quant)
		if err != nil {
			t.Fatal(err)
		}
		prevDC = dc
		for _, v := range blk {
			clamped = clamped || v == dequantClamp || v == -dequantClamp
		}
		idct8x8(&blk)
		if v := slices.Min(blk[:]); v < lo {
			lo = v
		}
		if v := slices.Max(blk[:]); v > hi {
			hi = v
		}
	}
	if !clamped {
		t.Fatal("no dequantized coefficient reaches ±dequantClamp")
	}
	return lo, hi
}

// TestRegionRejectsOutsideRectangles: an empty rectangle, or one not inside
// the image, is an error and not a panic.
func TestRegionRejectsOutsideRectangles(t *testing.T) {
	blob := EncodeSJPGSubsampled(SynthesizeImage(20, 12, 1), 85, Sub420)
	const big = int(^uint(0) >> 1)
	for _, rc := range [][4]int{
		{0, 0, 0, 1}, {0, 0, 1, 0}, {-1, 0, 1, 1}, {0, -1, 1, 1}, {0, 0, 21, 1}, {0, 0, 1, 13},
		{20, 0, 1, 1}, {0, 12, 1, 1}, {19, 0, 2, 1}, {0, 11, 1, 2}, {1, 1, big, 1}, {1, 1, 1, big},
		{big, 0, 1, 1}, {0, big, 1, 1}, {0, 0, -1, -1},
	} {
		if im, err := DecodeSJPGRegion(blob, rc[0], rc[1], rc[2], rc[3]); err == nil {
			t.Fatalf("region %v of a 20x12 image decoded to %dx%d, want an error", rc, im.W, im.H)
		}
	}
}

// TestSkipRejectsWhatDecodeRejects: the blocks a region decode only walks are
// held to every check a decoded block is. Every single-byte corruption and
// every truncation of a stream is accepted by a 1x1 region decode (which
// skips nearly every block) iff the reference full decode accepts it.
func TestSkipRejectsWhatDecodeRejects(t *testing.T) {
	for _, sub := range []Subsampling{Sub444, Sub420} {
		blob := EncodeSJPGSubsampled(SynthesizeImage(27, 21, 5), 85, sub)
		hd, err := parseSJPGHeader(blob)
		if err != nil {
			t.Fatal(err)
		}
		try := func(what string, data []byte) bool {
			_, refErr := refDecodeSJPG(data)
			for _, rc := range [][4]int{{0, 0, 1, 1}, {26, 20, 1, 1}, {9, 9, 3, 3}} {
				_, err := DecodeSJPGRegion(data, rc[0], rc[1], rc[2], rc[3])
				if (err == nil) != (refErr == nil) {
					t.Fatalf("sub%d %s: region %v err=%v, full decode err=%v", sub, what, rc, err, refErr)
				}
			}
			return refErr != nil
		}
		rejected := 0
		mut := make([]byte, len(blob))
		for pos := hd.body; pos < len(blob); pos++ {
			for _, v := range []byte{0x00, 0x7F, 0x80, 0xFF, blob[pos] ^ 0x40} {
				copy(mut, blob)
				mut[pos] = v
				if try(fmt.Sprintf("byte %d = %#x", pos, v), mut) {
					rejected++
				}
			}
			if try(fmt.Sprintf("truncated to %d", pos), blob[:pos]) {
				rejected++
			}
		}
		if rejected == 0 {
			t.Fatal("no corruption was rejected: the test exercises nothing")
		}
	}

	// The edges of skipMCU's fast path, each in a block a 1x1 region skips
	// and a wider one decodes.
	for _, e := range fastPathEdges() {
		_, refErr := refDecodeSJPG(e.stream)
		if (refErr == nil) != e.valid {
			t.Fatalf("%s: full decode err=%v, want valid=%v", e.name, refErr, e.valid)
		}
		for _, rc := range [][4]int{{0, 0, 1, 1}, {23, 15, 1, 1}, {8, 0, 8, 8}, {0, 0, 24, 16}} {
			_, err := DecodeSJPGRegion(e.stream, rc[0], rc[1], rc[2], rc[3])
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: region %v err=%v, full decode err=%v", e.name, rc, err, refErr)
			}
		}
	}
}

// A fastPathEdge is a hand-built 24x16 4:4:4 stream of DC-only blocks except
// one whose tokens sit on an edge of skipMCU's fast path: luma block 1, or
// for the truncated EOB the last block of the stream.
type fastPathEdge struct {
	name   string
	stream []byte
	valid  bool
}

func fastPathEdges() []fastPathEdge {
	edge := func(name string, last bool, tokens []byte, valid bool) fastPathEdge {
		const blocks = 3 * 3 * 2
		var body []byte
		for k := range blocks {
			body = append(body, 0x00) // DC delta 0
			if k == 1 && !last || k == blocks-1 && last {
				body = append(body, tokens...)
				continue
			}
			body = append(body, eobLo, eobHi)
		}
		return fastPathEdge{name, sjpgStream(24, 16, Sub444, body), valid}
	}
	return []fastPathEdge{
		edge("overlong EOB", false, []byte{0x03, 0x04, 0xFF, 0x81, 0x00}, true),
		edge("0xFF as the stream's last byte", true, []byte{0x03, 0x04, 0xFF}, false),
		edge("one-byte run of 62", false, []byte{0x3E, 0x04, eobLo, eobHi}, true),
		edge("one-byte run of 63", false, []byte{0x3F, 0x04, eobLo, eobHi}, false),
		edge("one-byte run of 64", false, []byte{0x40, 0x04, eobLo, eobHi}, false),
		edge("two-byte value after a one-byte run", false, []byte{0x02, 0x80, 0x01, eobLo, eobHi}, true),
	}
}

// TestRegionKeepsNothingOfInput: the worker's blob scratch is overwritten
// right after a decode, so the decoder must be done with its input when it
// returns — and a second decode into recycled pool buffers must not disturb
// the first result.
func TestRegionKeepsNothingOfInput(t *testing.T) {
	blob := EncodeSJPGSubsampled(SynthesizeImage(90, 70, 3), 85, Sub420)
	full, err := refDecodeSJPG(blob)
	if err != nil {
		t.Fatal(err)
	}
	scratch := append([]byte(nil), blob...)
	got, err := DecodeSJPGRegion(scratch, 11, 13, 50, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scratch {
		scratch[i] = 0xA5
	}
	other, err := DecodeSJPGRegion(blob, 0, 0, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := Crop(full, 11, 13, 50, 40)
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("region pixels changed once the input buffer was overwritten")
	}
	other.Release()
	got.Release()
}

// TestRegionSteadyAllocations: a steady region decode allocates pool
// bookkeeping only — no more objects per op than the six boxes
// BenchmarkLoaderSteady allowed the decoder it replaced.
func TestRegionSteadyAllocations(t *testing.T) {
	blob := EncodeSJPGSubsampled(SynthesizeImage(200, 150, 9), 85, Sub420)
	decode := func() {
		im, err := DecodeSJPGRegion(blob, 20, 30, 120, 90)
		if err != nil {
			t.Fatal(err)
		}
		im.Release()
	}
	decode()
	if n := testing.AllocsPerRun(50, decode); n > 6 {
		t.Fatalf("steady region decode makes %.0f allocations per op, want <= 6", n)
	}
}

var regionSink *Image

// BenchmarkDecodeRegion fails itself unless decoding a quarter-area window
// costs at most 0.6x the full decode of the same blob. Both sides are timed in
// this process, interleaved, so the shared runner's speed cancels out of the
// ratio. It judges only runs of b.N >= 2 (100 pairs or more), as
// BenchmarkLoaderOverlap does.
func BenchmarkDecodeRegion(b *testing.B) {
	const W, H = 232, 174 // ~40 kpx, the upper end of the 256-px corpus
	blob := EncodeSJPGSubsampled(SynthesizeImage(W, H, 7), 85, Sub420)
	decode := func(x0, y0, w, h int) time.Duration {
		start := time.Now()
		im, err := DecodeSJPGRegion(blob, x0, y0, w, h)
		d := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		regionSink = im
		im.Release()
		return d
	}
	// Not block-aligned on purpose: the window pays for its partial blocks.
	const x0, y0 = W/4 + 3, H/4 + 3
	var full, quarter time.Duration
	for i := 0; i < 20; i++ { // warm the pools and the caches
		decode(0, 0, W, H)
		decode(x0, y0, W/2, H/2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 50; k++ {
			full += decode(0, 0, W, H)
			quarter += decode(x0, y0, W/2, H/2)
		}
	}
	ratio := float64(quarter) / float64(full)
	n := float64(b.N * 50)
	b.ReportMetric(float64(full.Microseconds())/n, "full-µs")
	b.ReportMetric(float64(quarter.Microseconds())/n, "quarter-µs")
	b.ReportMetric(ratio, "quarter/full")
	if b.N < 2 {
		return // the benchmark's own calibration run: one slow stretch of the host can sway it
	}
	if ratio > 0.6 {
		b.Fatalf("a quarter-area window costs %.2fx the full decode, want <= 0.6x", ratio)
	}
}
