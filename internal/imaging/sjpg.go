package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file implements SJPG, a simplified JPEG-style codec. It keeps the
// real pipeline stages of baseline JPEG — RGB↔YCbCr color conversion,
// 4:4:4 or 4:2:0 chroma (upsampled on decode as libjpeg's fancy upsampling
// does), 8x8 block DCT, quality-scaled quantization, zigzag scan, DC
// differential coding and AC zero-run-length coding — while replacing
// Huffman coding with a varint entropy layer. The stage structure mirrors
// libjpeg's, so the native-kernel layer can attribute decode work to the
// same function inventory the paper observes (decode_mcu, jpeg_idct_islow,
// ycc_rgb_convert, decompress_onepass, ...).
//
// All pixel arithmetic is int32 fixed point, like the libraries the paper
// profiles: color conversion uses 16-bit scaled coefficients (jccolor.c /
// jdcolor.c), the inverse DCT is the Loeffler/islow integer butterfly with
// CONST_BITS=13 and PASS1_BITS=2 (jidctint.c), and plane buffers are flat
// pooled []int32 — no per-plane heap allocation per decode.
//
// Where the CPU has AVX2, two decode loops run on kernels (sjpg_amd64.s),
// as libjpeg's run vectorized: convertRow420, the 4:2:0 colour pass, for
// any int32 lanes and any vertical weight, and idctStore, the inverse
// transform and store of a block with AC coefficients, for coefficients
// within ±dequantClamp, which every decoded block keeps. The scalar code in
// this file is their definition.

const sjpgMagic = "SJPG"

// Subsampling selects the chroma layout.
type Subsampling int

const (
	// Sub444 stores chroma at full resolution.
	Sub444 Subsampling = iota
	// Sub420 stores chroma at half resolution in both axes (the common
	// photographic JPEG layout); decode upsamples it back (libjpeg's
	// sep_upsample stage).
	Sub420
)

// Standard JPEG Annex K luminance and chrominance quantization tables.
var lumaQuant = [64]int32{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

var chromaQuant = [64]int32{
	17, 18, 24, 47, 99, 99, 99, 99,
	18, 21, 26, 66, 99, 99, 99, 99,
	24, 26, 56, 99, 99, 99, 99, 99,
	47, 66, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
}

// zigzag maps scan position -> block index.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// scaledQuant builds the quality-scaled quantization table, following the
// libjpeg quality curve.
func scaledQuant(base *[64]int32, quality int) [64]int32 {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale int32
	if quality < 50 {
		scale = int32(5000 / quality)
	} else {
		scale = int32(200 - 2*quality)
	}
	var out [64]int32
	for i, q := range base {
		v := (q*scale + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		out[i] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// Color conversion (16-bit fixed point, jccolor.c / jdcolor.c)
// ---------------------------------------------------------------------------

const (
	fixBits = 16
	fixHalf = 1 << (fixBits - 1)
)

// rgbToYCbCr converts one pixel using the JPEG (full-range) matrix in
// 16.16 fixed point: y in [0, 255], cb and cr centred on 128. The scaled
// coefficient rows each sum to exactly 1<<16, so neutral grays convert
// without drift.
func rgbToYCbCr(r, g, b uint8) (y, cb, cr int32) {
	fr, fg, fb := int32(r), int32(g), int32(b)
	y = (19595*fr + 38470*fg + 7471*fb + fixHalf) >> fixBits
	cb = 128 + ((-11059*fr - 21709*fg + 32768*fb + fixHalf) >> fixBits)
	cr = 128 + ((32768*fr - 27439*fg - 5329*fb + fixHalf) >> fixBits)
	return
}

// yccToRGB is the conversion's arithmetic on zero-centred chroma, before
// the clamp to a byte — small enough to inline into the row loops.
func yccToRGB(y, cb, cr int32) (r, g, b int32) {
	r = y + ((91881*cr + fixHalf) >> fixBits)
	g = y - ((22554*cb + 46802*cr + fixHalf) >> fixBits)
	b = y + ((116130*cb + fixHalf) >> fixBits)
	return
}

func clampU8(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// ---------------------------------------------------------------------------
// Forward DCT (int32 fixed point)
// ---------------------------------------------------------------------------

const (
	constBits = 13
	pass1Bits = 2
)

// fdctTab[u][n] = round(c(u) * cos((2n+1)uπ/16) << constBits): the DCT-II
// basis with the orthonormal scale factor folded in.
var fdctTab [8][8]int32

func init() {
	for u := 0; u < 8; u++ {
		c := 0.5
		if u == 0 {
			c = 0.5 / math.Sqrt2
		}
		for n := 0; n < 8; n++ {
			fdctTab[u][n] = int32(math.Round(c * math.Cos(float64(2*n+1)*float64(u)*math.Pi/16) * (1 << constBits)))
		}
	}
}

// fdct8x8 applies a separable 8-point DCT-II in place on a level-shifted
// block (values in roughly ±1024), producing natural-scale coefficients —
// the jpeg_fdct_islow counterpart. The first pass keeps pass1Bits extra
// fractional bits so the second pass's rounding does not accumulate.
func fdct8x8(blk *[64]int32) {
	var tmp [64]int32
	const r1 = 1 << (constBits - pass1Bits - 1)
	for r := 0; r < 8; r++ {
		in := blk[r*8 : r*8+8 : r*8+8]
		for u := 0; u < 8; u++ {
			t := &fdctTab[u]
			sum := in[0]*t[0] + in[1]*t[1] + in[2]*t[2] + in[3]*t[3] +
				in[4]*t[4] + in[5]*t[5] + in[6]*t[6] + in[7]*t[7]
			tmp[r*8+u] = (sum + r1) >> (constBits - pass1Bits)
		}
	}
	const r2 = 1 << (constBits + pass1Bits - 1)
	for c := 0; c < 8; c++ {
		for u := 0; u < 8; u++ {
			t := &fdctTab[u]
			sum := tmp[c]*t[0] + tmp[8+c]*t[1] + tmp[16+c]*t[2] + tmp[24+c]*t[3] +
				tmp[32+c]*t[4] + tmp[40+c]*t[5] + tmp[48+c]*t[6] + tmp[56+c]*t[7]
			blk[u*8+c] = (sum + r2) >> (constBits + pass1Bits)
		}
	}
}

// ---------------------------------------------------------------------------
// Inverse DCT: the Loeffler-Ligtenberg-Moshovitz butterfly used by
// jpeg_idct_islow, in int32 fixed point
// ---------------------------------------------------------------------------

const (
	fix0298631336 = 2446  // FIX(0.298631336)
	fix0390180644 = 3196  // FIX(0.390180644)
	fix0541196100 = 4433  // FIX(0.541196100)
	fix0765366865 = 6270  // FIX(0.765366865)
	fix0899976223 = 7373  // FIX(0.899976223)
	fix1175875602 = 9633  // FIX(1.175875602)
	fix1501321110 = 12299 // FIX(1.501321110)
	fix1847759065 = 15137 // FIX(1.847759065)
	fix1961570560 = 16069 // FIX(1.961570560)
	fix2053119869 = 16819 // FIX(2.053119869)
	fix2562915447 = 20995 // FIX(2.562915447)
	fix3072711026 = 25172 // FIX(3.072711026)
)

// dequantClamp bounds dequantized coefficients. Valid streams never exceed
// ~1200 (the DCT of a ±128 block tops out near 1024 plus half a quant
// step); the clamp only defends the int32 butterfly's headroom against
// hostile varint payloads.
const dequantClamp = 2048

// idct8x8 applies the inverse transform in place (jpeg_idct_islow): 12
// multiplies per 1-D butterfly instead of 64 for the naive dot-product
// form, with an all-zero-AC row shortcut — after quantization most rows
// are DC-only, which is exactly the case libjpeg special-cases.
func idct8x8(blk *[64]int32) {
	var ws [64]int32

	// Pass 1: rows, output scaled up by 1<<pass1Bits.
	for r := 0; r < 8; r++ {
		in := blk[r*8 : r*8+8 : r*8+8]
		if in[1]|in[2]|in[3]|in[4]|in[5]|in[6]|in[7] == 0 {
			dc := in[0] << pass1Bits
			o := ws[r*8 : r*8+8 : r*8+8]
			o[0], o[1], o[2], o[3] = dc, dc, dc, dc
			o[4], o[5], o[6], o[7] = dc, dc, dc, dc
			continue
		}

		// Even part.
		z2, z3 := in[2], in[6]
		z1 := (z2 + z3) * fix0541196100
		tmp2 := z1 - z3*fix1847759065
		tmp3 := z1 + z2*fix0765366865
		z2, z3 = in[0], in[4]
		tmp0 := (z2 + z3) << constBits
		tmp1 := (z2 - z3) << constBits
		t10, t13 := tmp0+tmp3, tmp0-tmp3
		t11, t12 := tmp1+tmp2, tmp1-tmp2

		// Odd part.
		tmp0, tmp1, tmp2, tmp3 = in[7], in[5], in[3], in[1]
		z1 = tmp0 + tmp3
		z2 = tmp1 + tmp2
		z3 = tmp0 + tmp2
		z4 := tmp1 + tmp3
		z5 := (z3 + z4) * fix1175875602
		tmp0 *= fix0298631336
		tmp1 *= fix2053119869
		tmp2 *= fix3072711026
		tmp3 *= fix1501321110
		z1 *= -fix0899976223
		z2 *= -fix2562915447
		z3 = z3*-fix1961570560 + z5
		z4 = z4*-fix0390180644 + z5
		tmp0 += z1 + z3
		tmp1 += z2 + z4
		tmp2 += z2 + z3
		tmp3 += z1 + z4

		const rnd = 1 << (constBits - pass1Bits - 1)
		o := ws[r*8 : r*8+8 : r*8+8]
		o[0] = (t10 + tmp3 + rnd) >> (constBits - pass1Bits)
		o[7] = (t10 - tmp3 + rnd) >> (constBits - pass1Bits)
		o[1] = (t11 + tmp2 + rnd) >> (constBits - pass1Bits)
		o[6] = (t11 - tmp2 + rnd) >> (constBits - pass1Bits)
		o[2] = (t12 + tmp1 + rnd) >> (constBits - pass1Bits)
		o[5] = (t12 - tmp1 + rnd) >> (constBits - pass1Bits)
		o[3] = (t13 + tmp0 + rnd) >> (constBits - pass1Bits)
		o[4] = (t13 - tmp0 + rnd) >> (constBits - pass1Bits)
	}

	// Pass 2: columns, final descale folds in the 1/8 IDCT normalization
	// (the +3 in the shift).
	for c := 0; c < 8; c++ {
		z2, z3 := ws[16+c], ws[48+c]
		z1 := (z2 + z3) * fix0541196100
		tmp2 := z1 - z3*fix1847759065
		tmp3 := z1 + z2*fix0765366865
		z2, z3 = ws[c], ws[32+c]
		tmp0 := (z2 + z3) << constBits
		tmp1 := (z2 - z3) << constBits
		t10, t13 := tmp0+tmp3, tmp0-tmp3
		t11, t12 := tmp1+tmp2, tmp1-tmp2

		tmp0, tmp1, tmp2, tmp3 = ws[56+c], ws[40+c], ws[24+c], ws[8+c]
		z1 = tmp0 + tmp3
		z2 = tmp1 + tmp2
		z3 = tmp0 + tmp2
		z4 := tmp1 + tmp3
		z5 := (z3 + z4) * fix1175875602
		tmp0 *= fix0298631336
		tmp1 *= fix2053119869
		tmp2 *= fix3072711026
		tmp3 *= fix1501321110
		z1 *= -fix0899976223
		z2 *= -fix2562915447
		z3 = z3*-fix1961570560 + z5
		z4 = z4*-fix0390180644 + z5
		tmp0 += z1 + z3
		tmp1 += z2 + z4
		tmp2 += z2 + z3
		tmp3 += z1 + z4

		const shift = constBits + pass1Bits + 3
		const rnd = 1 << (shift - 1)
		blk[c] = (t10 + tmp3 + rnd) >> shift
		blk[56+c] = (t10 - tmp3 + rnd) >> shift
		blk[8+c] = (t11 + tmp2 + rnd) >> shift
		blk[48+c] = (t11 - tmp2 + rnd) >> shift
		blk[16+c] = (t12 + tmp1 + rnd) >> shift
		blk[40+c] = (t12 - tmp1 + rnd) >> shift
		blk[24+c] = (t13 + tmp0 + rnd) >> shift
		blk[32+c] = (t13 - tmp0 + rnd) >> shift
	}
}

// ---------------------------------------------------------------------------
// Entropy layer
// ---------------------------------------------------------------------------

// byteWriter is the varint entropy layer.
type byteWriter struct{ buf []byte }

func (w *byteWriter) writeUvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *byteWriter) writeVarint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

type byteReader struct {
	buf []byte
	pos int
}

func (r *byteReader) readUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errors.New("sjpg: truncated uvarint")
	}
	r.pos += n
	return v, nil
}

// oneByte takes the next varint if it is a one-byte encoding — nearly every
// run and most coefficients of a photographic stream — small enough to
// inline into the block loops. Anything longer, and every error, is
// readUvarint's or readVarint's.
func (r *byteReader) oneByte() (byte, bool) {
	if p := r.pos; p < len(r.buf) && r.buf[p] < 0x80 {
		r.pos = p + 1
		return r.buf[p], true
	}
	return 0, false
}

func (r *byteReader) readVarint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errors.New("sjpg: truncated varint")
	}
	r.pos += n
	return v, nil
}

const eobRun = 0xFF // end-of-block marker in the run field

// eobLo and eobHi are the two bytes the encoder writes for eobRun: every
// block ends with them.
const eobLo, eobHi = 0xFF, 0x01

// eob takes the next two bytes if they are the encoder's EOB: a block's
// terminator, which misses oneByte, without binary.Uvarint. Any other
// encoding of eobRun is readUvarint's.
func (r *byteReader) eob() bool {
	if p := r.pos; p+1 < len(r.buf) && r.buf[p] == eobLo && r.buf[p+1] == eobHi {
		r.pos = p + 2
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

// EncodeSJPGSubsampled compresses with an explicit chroma layout.
func EncodeSJPGSubsampled(im *Image, quality int, sub Subsampling) []byte {
	// Pre-size for the common photographic case (~1 byte/px at q=85) so
	// the entropy buffer grows at most once.
	w := &byteWriter{buf: make([]byte, 0, 64+im.W*im.H)}
	w.buf = append(w.buf, sjpgMagic...)
	w.writeUvarint(uint64(im.W))
	w.writeUvarint(uint64(im.H))
	w.writeUvarint(uint64(quality))
	w.writeUvarint(uint64(sub))

	planes := colorConvertForward(im)
	quants := [3][64]int32{
		scaledQuant(&lumaQuant, quality),
		scaledQuant(&chromaQuant, quality),
		scaledQuant(&chromaQuant, quality),
	}

	for ch := 0; ch < 3; ch++ {
		plane, pw, ph := planes[ch], im.W, im.H
		if sub == Sub420 && ch > 0 {
			ds, dw, dh := downsample2x(plane, im.W, im.H)
			encodePlane(w, ds, dw, dh, &quants[ch])
			putI32(ds)
			continue
		}
		encodePlane(w, plane, pw, ph, &quants[ch])
	}
	for _, p := range planes {
		putI32(p)
	}
	return w.buf
}

// roundDiv divides rounding half away from zero, matching math.Round of
// the floating-point quotient.
func roundDiv(v, q int32) int32 {
	if v >= 0 {
		return (v + q/2) / q
	}
	return -((-v + q/2) / q)
}

// encodePlane writes one plane's blocks (DC differential + AC runs).
func encodePlane(w *byteWriter, plane []int32, pw, ph int, quant *[64]int32) {
	bw, bh := (pw+7)/8, (ph+7)/8
	prevDC := int64(0)
	var blk [64]int32
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			loadBlock(&blk, plane, pw, ph, bx, by)
			fdct8x8(&blk)
			dc := int64(roundDiv(blk[0], quant[0]))
			w.writeVarint(dc - prevDC)
			prevDC = dc
			// AC run-length: (zero-run, value) pairs, EOB terminator.
			run := 0
			for i := 1; i < 64; i++ {
				q := roundDiv(blk[zigzag[i]], quant[zigzag[i]])
				if q == 0 {
					run++
					continue
				}
				w.writeUvarint(uint64(run))
				w.writeVarint(int64(q))
				run = 0
			}
			w.writeUvarint(eobRun)
		}
	}
}

// downsample2x halves a plane in both axes by box averaging (the encoder
// side of 4:2:0). The result is pooled; the caller releases it.
func downsample2x(plane []int32, w, h int) ([]int32, int, int) {
	ow, oh := (w+1)/2, (h+1)/2
	out := getI32(ow * oh)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			var sum, n int32
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					sy, sx := y*2+dy, x*2+dx
					if sy < h && sx < w {
						sum += plane[sy*w+sx]
						n++
					}
				}
			}
			out[y*ow+x] = roundDiv(sum, n)
		}
	}
	return out, ow, oh
}

// chromaTap returns the two source samples and the quarter-unit weight that
// output position i of a 2x "fancy" upsample (libjpeg's sep_upsample) reads
// along one axis of an n-sample chroma plane: output i sits at i/2 - 1/4 in
// chroma units, so it blends samples i0 and i1 with weights (4-f, f), both
// clamped into the plane. The bilinear weights of the two axes multiply to
// sixteenths.
func chromaTap(i, n int) (i0, i1 int, f int32) {
	s4 := 2*i - 1
	i0 = s4 >> 2
	f = int32(s4 - i0*4)
	i1 = i0 + 1
	if i0 < 0 {
		i0 = 0
	}
	if i1 > n-1 {
		i1 = n - 1
	}
	if i0 > n-1 {
		i0 = n - 1
	}
	return i0, i1, f
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

// sjpgHeader is a parsed and validated SJPG header.
type sjpgHeader struct {
	w, h, quality int
	sub           Subsampling
	body          int // offset of the first plane's entropy data
}

// parseSJPGHeader is the one reader of the header: whatever it accepts the
// decoder will size buffers from, so every limit lives here.
func parseSJPGHeader(data []byte) (sjpgHeader, error) {
	if len(data) < 4 || string(data[:4]) != sjpgMagic {
		return sjpgHeader{}, errors.New("sjpg: bad magic")
	}
	r := &byteReader{buf: data, pos: 4}
	var f [4]uint64 // width, height, quality, subsampling
	for i := range f {
		v, err := r.readUvarint()
		if err != nil {
			return sjpgHeader{}, err
		}
		f[i] = v
	}
	if f[0] == 0 || f[1] == 0 || f[0] > 1<<16 || f[1] > 1<<16 {
		return sjpgHeader{}, fmt.Errorf("sjpg: implausible dimensions %dx%d", f[0], f[1])
	}
	// Cap the total pixel count: a hostile header must not make the decoder
	// allocate tens of gigabytes before the payload is even validated.
	const maxPixels = 1 << 26 // 64 Mpix, ~8x a full-frame photo
	if f[0]*f[1] > maxPixels {
		return sjpgHeader{}, fmt.Errorf("sjpg: image %dx%d exceeds the %d-pixel decode limit", f[0], f[1], maxPixels)
	}
	if f[3] != uint64(Sub444) && f[3] != uint64(Sub420) {
		return sjpgHeader{}, fmt.Errorf("sjpg: unknown subsampling %d", f[3])
	}
	// A quality past int range lands wherever the cast puts it; scaledQuant
	// clamps it into [1, 100] either way.
	return sjpgHeader{w: int(f[0]), h: int(f[1]), quality: int(f[2]), sub: Subsampling(f[3]), body: r.pos}, nil
}

// SJPGDims parses just the header, returning the encoded dimensions. It
// accepts exactly the headers DecodeSJPG accepts.
func SJPGDims(data []byte) (w, h int, err error) {
	hd, err := parseSJPGHeader(data)
	return hd.w, hd.h, err
}

// DecodeSJPG decompresses an SJPG payload: DecodeSJPGRegion over the whole
// image. The returned image is pooled; callers may Release it when finished
// with the pixels.
func DecodeSJPG(data []byte) (*Image, error) {
	hd, err := parseSJPGHeader(data)
	if err != nil {
		return nil, err
	}
	return decodeRegion(data, hd, 0, 0, hd.w, hd.h)
}

// DecodeSJPGRegion decompresses the rectangle [x0, x0+w) x [y0, y0+h) of an
// SJPG payload: byte for byte Crop(DecodeSJPG(data), x0, y0, w, h), without
// reconstructing what the crop would drop. It fails when DecodeSJPG would —
// blocks outside the window are still entropy-walked with every check — or
// when the rectangle is empty or not inside the image. The decode path
// mirrors libjpeg's stages: entropy decode (decode_mcu), dequantize +
// inverse DCT (jpeg_idct_islow), chroma upsampling (sep_upsample) and color
// conversion (ycc_rgb_convert), assembled by the decompress_onepass driver.
// Nothing of data is retained. The returned image is pooled.
func DecodeSJPGRegion(data []byte, x0, y0, w, h int) (*Image, error) {
	hd, err := parseSJPGHeader(data)
	if err != nil {
		return nil, err
	}
	return decodeRegion(data, hd, x0, y0, w, h)
}

// planeWindow is the part of one plane a region decode reconstructs: the
// whole 8x8 blocks bx0..bx1 x by0..by1 (inclusive), stored without partial
// blocks at a stride of whole blocks, so a store needs no edge tests. The
// samples a partial edge block holds past the plane's edge are stored and
// never read.
type planeWindow struct {
	bw, bh             int // the plane in blocks
	bx0, bx1, by0, by1 int
	stride             int
	pix                []int32
}

// newPlaneWindow covers samples [x0, x1] x [y0, y1] (inclusive) of a
// pw x ph plane.
func newPlaneWindow(pw, ph, x0, x1, y0, y1 int) planeWindow {
	p := planeWindow{
		bw: (pw + 7) / 8, bh: (ph + 7) / 8,
		bx0: x0 / 8, bx1: x1 / 8, by0: y0 / 8, by1: y1 / 8,
	}
	p.stride = (p.bx1 - p.bx0 + 1) * 8
	return p
}

// size is the number of samples the window stores.
func (p *planeWindow) size() int { return p.stride * (p.by1 - p.by0 + 1) * 8 }

// row returns stored row y of the plane from sample x on.
func (p *planeWindow) row(x, y int) []int32 {
	return p.pix[(y-p.by0*8)*p.stride+x-p.bx0*8:]
}

func decodeRegion(data []byte, hd sjpgHeader, x0, y0, w, h int) (*Image, error) {
	if w <= 0 || h <= 0 || x0 < 0 || y0 < 0 || w > hd.w || h > hd.h || x0 > hd.w-w || y0 > hd.h-h {
		return nil, fmt.Errorf("sjpg: region (%d,%d,%d,%d) outside the %dx%d image", x0, y0, w, h, hd.w, hd.h)
	}
	// The luma window is the rectangle; a 4:2:0 chroma window is what the
	// upsample reads to fill it — the rectangle in chroma coordinates plus
	// the neighbour each edge tap blends in, clamped as the taps clamp.
	var win [3]planeWindow
	win[0] = newPlaneWindow(hd.w, hd.h, x0, x0+w-1, y0, y0+h-1)
	win[1] = win[0]
	cw, ch := (hd.w+1)/2, (hd.h+1)/2
	rowBuf := 0
	if hd.sub == Sub420 {
		cx0, _, _ := chromaTap(x0, cw)
		_, cx1, _ := chromaTap(x0+w-1, cw)
		cy0, _, _ := chromaTap(y0, ch)
		_, cy1, _ := chromaTap(y0+h-1, ch)
		win[1] = newPlaneWindow(cw, ch, cx0, cx1, cy0, cy1)
		rowBuf = 4 * w // two horizontally upsampled rows per chroma plane
	}
	win[2] = win[1]

	// One pooled buffer holds the three plane windows and the row buffers.
	scratch := getI32(win[0].size() + 2*win[1].size() + rowBuf)
	defer putI32(scratch)
	quants := [3][64]int32{scaledQuant(&lumaQuant, hd.quality), scaledQuant(&chromaQuant, hd.quality)}
	quants[2] = quants[1]
	r := &byteReader{buf: data, pos: hd.body}
	rest := scratch
	for i := range win {
		win[i].pix, rest = rest[:win[i].size()], rest[win[i].size():]
		if err := decodePlane(r, &win[i], &quants[i]); err != nil {
			return nil, err
		}
	}

	im := GetImage(w, h)
	if hd.sub == Sub444 {
		for y := 0; y < h; y++ {
			convertRow(im.Pix[y*w*3:(y+1)*w*3],
				win[0].row(x0, y0+y), win[1].row(x0, y0+y), win[2].row(x0, y0+y))
		}
		return im, nil
	}
	// Upsample and convert one output row at a time. An output row blends two
	// chroma rows, and a chroma row feeds up to four output rows: its
	// horizontal pass runs once, into the slot of its parity, and stays there
	// until the rows that read it are done.
	var hcb, hcr [2][]int32
	for i := range hcb {
		hcb[i], rest = rest[:w], rest[w:]
		hcr[i], rest = rest[:w], rest[w:]
	}
	held := [2]int{-1, -1}
	ox := win[1].bx0 * 8
	for y := 0; y < h; y++ {
		c0, c1, fy := chromaTap(y0+y, ch)
		for _, c := range [2]int{c0, c1} {
			if held[c&1] != c {
				upsampleRow(hcb[c&1], win[1].row(ox, c), x0, cw, ox)
				upsampleRow(hcr[c&1], win[2].row(ox, c), x0, cw, ox)
				held[c&1] = c
			}
		}
		convertRow420(im.Pix[y*w*3:(y+1)*w*3], win[0].row(x0, y0+y),
			hcb[c0&1], hcb[c1&1], hcr[c0&1], hcr[c1&1], fy)
	}
	return im, nil
}

// decodePlane walks one plane's blocks (the decompress_onepass inner loop).
// Blocks of the window are entropy-decoded, dequantized, inverse-transformed
// and stored; every other block is only walked, which keeps the DC chain and
// rejects exactly the streams a full decode rejects.
func decodePlane(r *byteReader, p *planeWindow, quant *[64]int32) error {
	prevDC := int64(0)
	var blk [64]int32
	for by := 0; by < p.bh; by++ {
		inRows := by >= p.by0 && by <= p.by1
		for bx := 0; bx < p.bw; bx++ {
			if !inRows || bx < p.bx0 || bx > p.bx1 {
				dc, err := skipMCU(r, prevDC)
				if err != nil {
					return err
				}
				prevDC = dc
				continue
			}
			nz, dc, err := decodeMCU(&blk, r, prevDC, quant)
			if err != nil {
				return err
			}
			prevDC = dc
			dst := p.pix[(by-p.by0)*8*p.stride+(bx-p.bx0)*8:]
			if nz <= 1 {
				// DC-only block: the IDCT of a lone DC coefficient is a
				// flat block at dc/8 (libjpeg's dcval shortcut).
				storeBlockConst((blk[0]+4)>>3, dst, p.stride)
				continue
			}
			idctStore(&blk, dst, p.stride)
		}
	}
	return nil
}

// dequant scales an entropy-decoded coefficient by its quant step and
// clamps it to the butterfly's safe input range.
func dequant(v int64, q int32) int32 {
	v *= int64(q)
	if v > dequantClamp {
		return dequantClamp
	}
	if v < -dequantClamp {
		return -dequantClamp
	}
	return int32(v)
}

var (
	errRunOverflow = errors.New("sjpg: AC run overflows block")
	errMissingEOB  = errors.New("sjpg: missing EOB")
)

// decodeMCU entropy-decodes and dequantizes one 8x8 block into blk in
// natural order (the hottest decode function in the paper's Table I). It
// returns the number of nonzero coefficients so DC-only blocks can skip
// the IDCT entirely.
func decodeMCU(blk *[64]int32, r *byteReader, prevDC int64, quant *[64]int32) (nz int, dc int64, err error) {
	*blk = [64]int32{}
	delta, err := r.readVarint()
	if err != nil {
		return 0, 0, err
	}
	dc = prevDC + delta
	blk[0] = dequant(dc, quant[0])
	nz = 1
	i := 1
	for i < 64 {
		var run uint64
		if b, ok := r.oneByte(); ok {
			run = uint64(b)
		} else if r.eob() {
			return nz, dc, nil
		} else if run, err = r.readUvarint(); err != nil {
			return 0, 0, err
		}
		if run == eobRun {
			return nz, dc, nil
		}
		// Bound the run before any arithmetic: a hostile varint can exceed
		// int range and wrap negative.
		if run > 63 {
			return 0, 0, errRunOverflow
		}
		i += int(run)
		if i >= 64 {
			return 0, 0, errRunOverflow
		}
		var v int64
		if b, ok := r.oneByte(); ok {
			v = int64(b>>1) ^ -int64(b&1) // zigzag, as binary.Varint
		} else if v, err = r.readVarint(); err != nil {
			return 0, 0, err
		}
		zz := zigzag[i]
		blk[zz] = dequant(v, quant[zz])
		nz++
		i++
	}
	// A full block must still be terminated by its EOB.
	run, err := r.readUvarint()
	if err != nil {
		return 0, 0, err
	}
	if run != eobRun {
		return 0, 0, errMissingEOB
	}
	return nz, dc, nil
}

// skipMCU walks one block exactly as decodeMCU does — the same reads in the
// same order, the same checks, the same DC chain — and reconstructs
// nothing. It fails on precisely the inputs decodeMCU fails on, which is
// what lets a region decode reject every stream a full decode rejects. A
// value's bytes are stepped over without being assembled: a varint is
// well-formed or not whatever its sign.
func skipMCU(r *byteReader, prevDC int64) (dc int64, err error) {
	delta, err := r.readVarint()
	if err != nil {
		return 0, err
	}
	i := 1
	for i < 64 {
		// Nearly every token of a stream is a one-byte run and a one-byte
		// value, and every block ends with the EOB pair: take either in one
		// step, with the slow path's checks and errors. Anything else goes
		// to the slow path.
		if p := r.pos; p+1 < len(r.buf) && r.buf[p]|r.buf[p+1] < 0x80 {
			run := int(r.buf[p])
			if run > 63 {
				return 0, errRunOverflow
			}
			if i += run; i >= 64 {
				return 0, errRunOverflow
			}
			r.pos = p + 2
			i++
			continue
		}
		if r.eob() {
			return prevDC + delta, nil
		}
		var run uint64
		if b, ok := r.oneByte(); ok {
			run = uint64(b)
		} else if run, err = r.readUvarint(); err != nil {
			return 0, err
		}
		if run == eobRun {
			return prevDC + delta, nil
		}
		if run > 63 {
			return 0, errRunOverflow
		}
		i += int(run)
		if i >= 64 {
			return 0, errRunOverflow
		}
		if _, ok := r.oneByte(); !ok {
			if _, err = r.readVarint(); err != nil {
				return 0, err
			}
		}
		i++
	}
	run, err := r.readUvarint()
	if err != nil {
		return 0, err
	}
	if run != eobRun {
		return 0, errMissingEOB
	}
	return prevDC + delta, nil
}

// upsampleRow runs the horizontal pass of the 2x chroma upsample for output
// columns [x0, x0+len(dst)): dst[i] is the 4x-scaled blend of the two chroma
// samples column x0+i reads. src is one row of a pw-sample chroma plane
// starting at sample ox. An odd column and the even one after it read the
// same two samples with weights (3, 1) and (1, 3); only column 0 and the
// columns from 2*pw-1 on clamp a tap to the plane.
func upsampleRow(dst, src []int32, x0, pw, ox int) {
	tap := func(i int) {
		c0, c1, f := chromaTap(x0+i, pw)
		dst[i] = (4-f)*src[c0-ox] + f*src[c1-ox]
	}
	i := 0
	if x0&1 == 0 {
		tap(0)
		i = 1
	}
	for end := min(len(dst), 2*pw-1-x0); i+1 < end; i += 2 {
		k := (x0+i)>>1 - ox
		a, b := src[k], src[k+1]
		dst[i], dst[i+1] = 3*a+b, a+3*b
	}
	for ; i < len(dst); i++ {
		tap(i)
	}
}

// convertRow420Scalar finishes one output row of a 4:2:0 image — the
// definition convertRow420 matches: the vertical pass of the chroma upsample
// over two horizontally upsampled rows (weights (4-fy, fy), rounded from
// sixteenths) fused with ycc_rgb_convert. Planes are level-shifted: luma gets
// its 128 back, chroma stays zero-centred.
func convertRow420Scalar(out []uint8, y, cb0, cb1, cr0, cr1 []int32, fy int32) {
	n := len(out) / 3
	y, cb0, cb1, cr0, cr1 = y[:n], cb0[:n], cb1[:n], cr0[:n], cr1[:n]
	gy := 4 - fy
	for i := range y {
		cb := (gy*cb0[i] + fy*cb1[i] + 8) >> 4
		cr := (gy*cr0[i] + fy*cr1[i] + 8) >> 4
		r, g, b := yccToRGB(y[i]+128, cb, cr)
		o := out[i*3 : i*3+3 : i*3+3]
		o[0], o[1], o[2] = clampU8(r), clampU8(g), clampU8(b)
	}
}

// convertRow is ycc_rgb_convert over one output row of level-shifted
// full-resolution planes.
func convertRow(out []uint8, y, cb, cr []int32) {
	n := len(out) / 3
	y, cb, cr = y[:n], cb[:n], cr[:n]
	for i := range y {
		r, g, b := yccToRGB(y[i]+128, cb[i], cr[i])
		o := out[i*3 : i*3+3 : i*3+3]
		o[0], o[1], o[2] = clampU8(r), clampU8(g), clampU8(b)
	}
}

// colorConvertForward produces the three YCbCr planes, level-shifted to be
// centred on zero as the DCT expects. Planes are pooled; the caller
// releases them.
func colorConvertForward(im *Image) [3][]int32 {
	n := im.W * im.H
	var planes [3][]int32
	for i := range planes {
		planes[i] = getI32(n)
	}
	p := im.Pix
	py, pcb, pcr := planes[0], planes[1], planes[2]
	for i := 0; i < n; i++ {
		y, cb, cr := rgbToYCbCr(p[i*3], p[i*3+1], p[i*3+2])
		py[i] = y - 128
		pcb[i] = cb - 128
		pcr[i] = cr - 128
	}
	return planes
}

// storeClamp bounds reconstructed samples: valid streams stay within
// ±~300 of zero, so the clamp only protects the color-convert multiplies
// from hostile-stream overflow.
func storeClamp(v int32) int32 {
	if v > 1023 {
		return 1023
	}
	if v < -1024 {
		return -1024
	}
	return v
}

// loadBlock copies an 8x8 tile from a plane, replicating edge samples for
// partial blocks (JPEG edge extension).
func loadBlock(blk *[64]int32, plane []int32, w, h, bx, by int) {
	for y := 0; y < 8; y++ {
		sy := by*8 + y
		if sy >= h {
			sy = h - 1
		}
		for x := 0; x < 8; x++ {
			sx := bx*8 + x
			if sx >= w {
				sx = w - 1
			}
			blk[y*8+x] = plane[sy*w+sx]
		}
	}
}

// storeBlock writes a reconstructed block into a plane window at dst.
func storeBlock(blk *[64]int32, dst []int32, stride int) {
	for y := 0; y < 8; y++ {
		row := dst[y*stride : y*stride+8 : y*stride+8]
		for x, v := range blk[y*8 : y*8+8 : y*8+8] {
			row[x] = storeClamp(v)
		}
	}
}

func storeBlockConst(v int32, dst []int32, stride int) {
	v = storeClamp(v)
	for y := 0; y < 8; y++ {
		row := dst[y*stride : y*stride+8 : y*stride+8]
		for x := range row {
			row[x] = v
		}
	}
}
