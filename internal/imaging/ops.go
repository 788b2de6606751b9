package imaging

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"lotus/internal/rng"
)

// Fixed-point resampling, following Pillow's 8bpc scheme
// (ImagingResampleHorizontal_8bpc): filter taps are precomputed as int32
// values scaled by 1<<coeffPrecision, each output sample accumulates
// tap*pixel products into an int32 with a single pre-added rounding half,
// and the final shift produces the byte. The precision is Pillow's 22 bits.
const (
	coeffPrecision = 32 - 8 - 2
	coeffOne       = 1 << coeffPrecision
	coeffHalf      = 1 << (coeffPrecision - 1)
)

// ResampleCoeffs holds the precomputed filter taps for one output axis —
// the analogue of Pillow's precompute_coeffs, which Table I lists under
// RandomResizedCrop on AMD. Taps is a flat [dstLen * KSize] fixed-point
// buffer (KSize-strided, zero-padded) rather than a jagged [][]float64 so
// a whole axis's coefficients live in two contiguous allocations.
type ResampleCoeffs struct {
	// KSize is the tap stride: the widest floor/ceil window of the triangle
	// filter's support. Every output's taps start at a multiple of it.
	KSize int
	// Bounds[i] is the first source index contributing to output i: its
	// window's leading zero taps are trimmed off.
	Bounds []int32
	// Counts[i] is the number of taps output i uses, at least 1: trailing
	// zero taps are trimmed off too, and edge windows are clipped to the
	// source, so most outputs use fewer than KSize (a bilinear upscale's
	// window is two taps, not three).
	Counts []int32
	// Taps holds KSize fixed-point taps per output, scaled by coeffOne.
	// Triangle taps are never negative, which the packed passes rely on.
	Taps []int32
	// TapsP mirrors Taps for the packed fast path: each tap appears three
	// times (once per interleaved channel slot) pre-widened to uint64, so
	// the horizontal inner loop indexes taps and packed pixels with the
	// same stride and the bounds checks fold away.
	TapsP []uint64
	// pairs is the table's per-output-byte expansion for horizontal2. Nil
	// unless the CPU has AVX2 and twoTapPairs builds one.
	pairs *tapPairs
}

// tapPairs expands a table whose windows have at most two taps into one
// entry per output byte: output byte 3x+c of a row is
// (coeffHalf + t0*row[off] + t1*row[off+3]) >> coeffPrecision, truncated to
// 8 bits, as resampleHorizontalPacked computes it.
type tapPairs struct {
	off, t0, t1 []int32
}

// twoTapPairs returns rc's expansion for a source of srcLen samples, or nil
// when some window has more than two taps or srcLen < 2.
// Output byte 3x+c reads source bytes 3*Bounds[x]+c and 3 past it, so one
// 4-byte load at off holds both of its samples. A one-tap window keeps its
// tap in t0 with 0 in t1, except on the last source pixel, where off steps
// one pixel back and the tap moves to t1: no output reads past the row.
func (rc *ResampleCoeffs) twoTapPairs(srcLen int) *tapPairs {
	if srcLen < 2 {
		return nil
	}
	for _, n := range rc.Counts {
		if n > 2 {
			return nil
		}
	}
	n := 3 * len(rc.Counts)
	all := make([]int32, 3*n)
	p := &tapPairs{off: all[:n:n], t0: all[n : 2*n : 2*n], t1: all[2*n:]}
	for x, b := range rc.Bounds {
		t0, t1 := rc.Taps[x*rc.KSize], int32(0)
		if rc.Counts[x] == 2 {
			t1 = rc.Taps[x*rc.KSize+1]
		} else if int(b) == srcLen-1 {
			b, t0, t1 = b-1, 0, t0
		}
		for c := range 3 {
			p.off[3*x+c], p.t0[3*x+c], p.t1[3*x+c] = 3*b+int32(c), t0, t1
		}
	}
	return p
}

// PrecomputeCoeffs builds the bilinear (triangle filter) coefficients for
// resampling srcLen samples to dstLen — the filter torchvision's
// RandomResizedCrop and Resize use by default, and the only one the
// pipelines run. Most callers should prefer CachedCoeffs: training
// pipelines resize every sample to the same output geometry, so the table
// is almost always already built.
//
// Each window is bounded with floor/ceil of center ± support, which can
// take in a source sample at exactly the support's edge, whose weight is 0,
// and quantization can round a tiny edge weight to 0 as well. Those zero
// taps are trimmed from both ends of the window (Pillow's precompute_coeffs
// rounds its bounds and builds only the taps that carry weight). Every
// kernel sums integer tap × pixel products, so a dropped zero term changes
// no byte.
func PrecomputeCoeffs(srcLen, dstLen int) *ResampleCoeffs {
	if srcLen <= 0 || dstLen <= 0 {
		panic(fmt.Sprintf("imaging: invalid resample %d -> %d", srcLen, dstLen))
	}
	scale := float64(srcLen) / float64(dstLen)
	// The triangle reaches one source sample each side of the center,
	// stretched by the scale when downsampling.
	support := math.Max(scale, 1)
	ksize := int(math.Ceil(support))*2 + 1
	rc := &ResampleCoeffs{
		KSize:  ksize,
		Bounds: make([]int32, dstLen),
		Counts: make([]int32, dstLen),
		Taps:   make([]int32, dstLen*ksize),
	}
	ws := make([]float64, ksize)
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
		n := hi - lo
		var sum float64
		for j := 0; j < n; j++ {
			w := 1 - math.Abs((float64(lo+j)+0.5-center)/support)
			if w < 0 {
				w = 0
			}
			ws[j] = w
			sum += w
		}
		taps := rc.Taps[i*ksize : (i+1)*ksize]
		if sum != 0 {
			for j := 0; j < n; j++ {
				taps[j] = int32(math.Round(ws[j] / sum * coeffOne))
			}
		} else {
			taps[0] = coeffOne
		}
		first, last := 0, n-1
		for first < last && taps[first] == 0 {
			first++
		}
		for last > first && taps[last] == 0 {
			last--
		}
		if first > 0 {
			copy(taps, taps[first:last+1])
			clear(taps[last+1-first:])
		}
		rc.Bounds[i] = int32(lo + first)
		rc.Counts[i] = int32(last + 1 - first)
	}
	rc.TapsP = make([]uint64, len(rc.Taps)*3)
	for i, t := range rc.Taps {
		ut := uint64(uint32(t))
		rc.TapsP[i*3], rc.TapsP[i*3+1], rc.TapsP[i*3+2] = ut, ut, ut
	}
	if haveAVX2 {
		rc.pairs = rc.twoTapPairs(srcLen)
	}
	return rc
}

// ---------------------------------------------------------------------------
// Coefficient cache
// ---------------------------------------------------------------------------

// coeffKey identifies one precomputed coefficient table.
type coeffKey struct{ src, dst int }

type coeffEntry struct {
	key coeffKey
	rc  *ResampleCoeffs
}

// coeffLRU is a small LRU cache of coefficient tables. RandomResizedCrop
// resizes every sample to the same output size, so steady-state training
// hits the cache on the vertical axis always and on the horizontal axis
// whenever a crop width repeats. Entries are immutable once built and may
// be shared across goroutines.
type coeffLRU struct {
	mu           sync.Mutex
	cap          int
	m            map[coeffKey]*list.Element
	ll           *list.List
	hits, misses uint64
}

// coeffCacheEntries holds a table for every window side up to the 256-px
// materialize cap (data.DefaultMaterializeDim), twice over. A
// RandomResizedCrop window's sides are any of 1..256 and each table serves
// both axes, so one IC run draws ~220 distinct keys; an LRU smaller than
// that thrashes (at 128 entries a quarter of the lookups miss, half a table
// build of ~20 µs and 23 KB per sample). The second 256 leave room for
// another output geometry in the same process.
const coeffCacheEntries = 2 * 256

var coeffCache = &coeffLRU{cap: coeffCacheEntries, m: make(map[coeffKey]*list.Element), ll: list.New()}

func (c *coeffLRU) get(k coeffKey) *ResampleCoeffs {
	c.mu.Lock()
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		rc := el.Value.(*coeffEntry).rc
		c.hits++
		c.mu.Unlock()
		return rc
	}
	c.misses++
	c.mu.Unlock()

	// Build outside the lock: tables are deterministic, so a racing build
	// of the same key produces an identical (wasted but harmless) table.
	rc := PrecomputeCoeffs(k.src, k.dst)

	c.mu.Lock()
	if el, ok := c.m[k]; ok {
		// Lost the race; keep the incumbent so all holders share one table.
		rc = el.Value.(*coeffEntry).rc
	} else {
		c.m[k] = c.ll.PushFront(&coeffEntry{key: k, rc: rc})
		for c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.m, oldest.Value.(*coeffEntry).key)
		}
	}
	c.mu.Unlock()
	return rc
}

// CachedCoeffs returns the (possibly cached) coefficient table for
// resampling srcLen samples to dstLen. The result is shared and must not be
// mutated.
func CachedCoeffs(srcLen, dstLen int) *ResampleCoeffs {
	return coeffCache.get(coeffKey{src: srcLen, dst: dstLen})
}

// CoeffCacheStats reports cumulative coefficient-cache hits and misses.
func CoeffCacheStats() (hits, misses uint64) {
	coeffCache.mu.Lock()
	defer coeffCache.mu.Unlock()
	return coeffCache.hits, coeffCache.misses
}

// ---------------------------------------------------------------------------
// Resampling
// ---------------------------------------------------------------------------

// Resize resamples the image to (w, h) with the separable bilinear filter,
// horizontal pass first then vertical — Pillow's
// ImagingResampleHorizontal_8bpc / ImagingResampleVertical_8bpc pair.
// The result is pooled; the caller may Release it when done.
func Resize(im *Image, w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid resize %dx%d", w, h))
	}
	switch {
	case w == im.W && h == im.H:
		out := GetImage(w, h)
		copy(out.Pix, im.Pix)
		return out
	case h == im.H:
		out := GetImage(w, h)
		resampleHorizontalInto(out, im, CachedCoeffs(im.W, w))
		return out
	case w == im.W:
		out := GetImage(w, h)
		resampleVerticalInto(out, im, CachedCoeffs(im.H, h))
		return out
	}
	mid := GetImage(w, im.H)
	resampleHorizontalInto(mid, im, CachedCoeffs(im.W, w))
	out := GetImage(w, h)
	resampleVerticalInto(out, mid, CachedCoeffs(im.H, h))
	mid.Release()
	return out
}

// clip8 shifts a fixed-point accumulator down to pixel range.
func clip8(v int32) uint8 {
	v >>= coeffPrecision
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// packedHalf seeds both lanes of a packed accumulator with the rounding
// half. Lane layout: low 32 bits hold one channel's sum, high 32 bits the
// other's. Taps are non-negative, so each lane stays below 2^31 (sum of taps
// is coeffOne = 2^22, pixel values <= 255, plus the 2^21 half): lanes never
// carry into each other and each reads back as a non-negative int32.
const packedHalf = uint64(coeffHalf) | uint64(coeffHalf)<<32

// packable reports whether the packed clamp-free fast path is valid: the
// window must be narrow enough that per-tap rounding slop (up to 0.5 each)
// cannot push a saturated window past 255 after the shift —
// 255*(KSize/2) + coeffHalf must stay under coeffOne.
func (rc *ResampleCoeffs) packable() bool {
	return rc.KSize <= 4096
}

func resampleHorizontalInto(dst, src *Image, rc *ResampleCoeffs) {
	if haveAVX2 && rc.pairs != nil {
		w3, sw3 := dst.W*3, src.W*3
		for y := 0; y < src.H; y++ {
			horizontal2(dst.Pix[y*w3:(y+1)*w3], src.Pix[y*sw3:(y+1)*sw3], rc.pairs)
		}
		return
	}
	if rc.packable() {
		resampleHorizontalPacked(dst, src, rc)
		return
	}
	w := dst.W
	for y := 0; y < src.H; y++ {
		row := src.Pix[y*src.W*3 : (y+1)*src.W*3]
		orow := dst.Pix[y*w*3 : (y+1)*w*3]
		for x := 0; x < w; x++ {
			base := x * rc.KSize
			n := int(rc.Counts[x])
			si := int(rc.Bounds[x]) * 3
			r, g, b := int32(coeffHalf), int32(coeffHalf), int32(coeffHalf)
			for k := 0; k < n; k++ {
				t := rc.Taps[base+k]
				r += t * int32(row[si])
				g += t * int32(row[si+1])
				b += t * int32(row[si+2])
				si += 3
			}
			o := x * 3
			orow[o] = clip8(r)
			orow[o+1] = clip8(g)
			orow[o+2] = clip8(b)
		}
	}
}

// resampleHorizontalPacked is the packed fast path. Horizontal
// taps are identical for every image row, so two consecutive rows ride in
// the two lanes of one uint64 per channel: each tap costs three multiplies
// for six channel samples instead of six. Because normalized non-negative
// taps sum to coeffOne (within rounding that cannot push a 255 pixel past
// 255 after the shift), the lane values are already in 0..255 and the store
// needs no clamp.
func resampleHorizontalPacked(dst, src *Image, rc *ResampleCoeffs) {
	w, sw := dst.W, src.W
	buf := getU64(6 * sw)
	pp, pq := buf[:3*sw], buf[3*sw:]
	y := 0
	// Main loop: four source rows per pass (two lane pairs), so the
	// coefficient loads, loop control, and output bookkeeping are shared by
	// four output pixels per channel.
	for ; y+3 < src.H; y += 4 {
		rowA := src.Pix[y*sw*3 : (y+1)*sw*3]
		rowB := src.Pix[(y+1)*sw*3 : (y+2)*sw*3]
		rowC := src.Pix[(y+2)*sw*3 : (y+3)*sw*3]
		rowD := src.Pix[(y+3)*sw*3 : (y+4)*sw*3]
		rowB = rowB[:len(rowA)]
		rowC = rowC[:len(rowA)]
		rowD = rowD[:len(rowA)]
		ppr := pp[:len(rowA)]
		pqr := pq[:len(rowA)]
		for i, v := range rowA {
			ppr[i] = uint64(v) | uint64(rowB[i])<<32
			pqr[i] = uint64(rowC[i]) | uint64(rowD[i])<<32
		}
		oA := dst.Pix[y*w*3 : (y+1)*w*3]
		oB := dst.Pix[(y+1)*w*3 : (y+2)*w*3]
		oC := dst.Pix[(y+2)*w*3 : (y+3)*w*3]
		oD := dst.Pix[(y+3)*w*3 : (y+4)*w*3]
		for x := 0; x < w; x++ {
			m := int(rc.Counts[x]) * 3
			base3 := x * rc.KSize * 3
			j := int(rc.Bounds[x]) * 3
			ra, ga, ba := packedHalf, packedHalf, packedHalf
			rb, gb, bb := packedHalf, packedHalf, packedHalf
			if m == 6 {
				// Two taps, a bilinear upscale's whole window: constant-length
				// slices, no tap loop and no remainder.
				ps, qs := pp[j:j+6], pq[j:j+6]
				ut0, ut1 := rc.TapsP[base3], rc.TapsP[base3+3]
				ra += ut0*ps[0] + ut1*ps[3]
				ga += ut0*ps[1] + ut1*ps[4]
				ba += ut0*ps[2] + ut1*ps[5]
				rb += ut0*qs[0] + ut1*qs[3]
				gb += ut0*qs[1] + ut1*qs[4]
				bb += ut0*qs[2] + ut1*qs[5]
			} else {
				ps := pp[j : j+m]
				qs := pq[j : j+m]
				tx := rc.TapsP[base3 : base3+m]
				jj := 0
				for ; jj+5 < m; jj += 6 {
					ut0, ut1 := tx[jj], tx[jj+3]
					ra += ut0*ps[jj] + ut1*ps[jj+3]
					ga += ut0*ps[jj+1] + ut1*ps[jj+4]
					ba += ut0*ps[jj+2] + ut1*ps[jj+5]
					rb += ut0*qs[jj] + ut1*qs[jj+3]
					gb += ut0*qs[jj+1] + ut1*qs[jj+4]
					bb += ut0*qs[jj+2] + ut1*qs[jj+5]
				}
				if jj < m {
					ut := tx[jj]
					ra += ut * ps[jj]
					ga += ut * ps[jj+1]
					ba += ut * ps[jj+2]
					rb += ut * qs[jj]
					gb += ut * qs[jj+1]
					bb += ut * qs[jj+2]
				}
			}
			o := x * 3
			oA[o] = uint8(ra >> coeffPrecision)
			oA[o+1] = uint8(ga >> coeffPrecision)
			oA[o+2] = uint8(ba >> coeffPrecision)
			oB[o] = uint8(ra >> (32 + coeffPrecision))
			oB[o+1] = uint8(ga >> (32 + coeffPrecision))
			oB[o+2] = uint8(ba >> (32 + coeffPrecision))
			oC[o] = uint8(rb >> coeffPrecision)
			oC[o+1] = uint8(gb >> coeffPrecision)
			oC[o+2] = uint8(bb >> coeffPrecision)
			oD[o] = uint8(rb >> (32 + coeffPrecision))
			oD[o+1] = uint8(gb >> (32 + coeffPrecision))
			oD[o+2] = uint8(bb >> (32 + coeffPrecision))
		}
	}
	for ; y+1 < src.H; y += 2 {
		row0 := src.Pix[y*sw*3 : (y+1)*sw*3]
		row1 := src.Pix[(y+1)*sw*3 : (y+2)*sw*3]
		// The packed buffer keeps the source's interleaved channel layout,
		// so the repack is one flat unit-stride pass and the tap loop below
		// walks a single sequential stream.
		row1 = row1[:len(row0)]
		ppr := pp[:len(row0)]
		for i, v := range row0 {
			ppr[i] = uint64(v) | uint64(row1[i])<<32
		}
		orow0 := dst.Pix[y*w*3 : (y+1)*w*3]
		orow1 := dst.Pix[(y+1)*w*3 : (y+2)*w*3]
		for x := 0; x < w; x++ {
			m := int(rc.Counts[x]) * 3
			base3 := x * rc.KSize * 3
			j := int(rc.Bounds[x]) * 3
			// ps and tx share the length m, so every index below is
			// provably in bounds and the checks vanish.
			ps := pp[j : j+m]
			tx := rc.TapsP[base3 : base3+m]
			r2, g2, b2 := packedHalf, packedHalf, packedHalf
			jj := 0
			for ; jj+5 < m; jj += 6 {
				ut0, ut1 := tx[jj], tx[jj+3]
				r2 += ut0*ps[jj] + ut1*ps[jj+3]
				g2 += ut0*ps[jj+1] + ut1*ps[jj+4]
				b2 += ut0*ps[jj+2] + ut1*ps[jj+5]
			}
			if jj < m {
				ut := tx[jj]
				r2 += ut * ps[jj]
				g2 += ut * ps[jj+1]
				b2 += ut * ps[jj+2]
			}
			o := x * 3
			orow0[o] = uint8(r2 >> coeffPrecision)
			orow0[o+1] = uint8(g2 >> coeffPrecision)
			orow0[o+2] = uint8(b2 >> coeffPrecision)
			orow1[o] = uint8(r2 >> (32 + coeffPrecision))
			orow1[o+1] = uint8(g2 >> (32 + coeffPrecision))
			orow1[o+2] = uint8(b2 >> (32 + coeffPrecision))
		}
	}
	if y < src.H {
		// Odd trailing row: plain scalar accumulation, still clamp-free.
		row := src.Pix[y*sw*3 : (y+1)*sw*3]
		orow := dst.Pix[y*w*3 : (y+1)*w*3]
		for x := 0; x < w; x++ {
			base := x * rc.KSize
			taps := rc.Taps[base : base+int(rc.Counts[x])]
			si := int(rc.Bounds[x]) * 3
			r, g, b := int32(coeffHalf), int32(coeffHalf), int32(coeffHalf)
			for _, t := range taps {
				r += t * int32(row[si])
				g += t * int32(row[si+1])
				b += t * int32(row[si+2])
				si += 3
			}
			o := x * 3
			orow[o] = uint8(uint32(r) >> coeffPrecision)
			orow[o+1] = uint8(uint32(g) >> coeffPrecision)
			orow[o+2] = uint8(uint32(b) >> coeffPrecision)
		}
	}
	putU64(buf)
}

// vertRegTaps bounds the tap-window width the packed register pass handles
// (a stack array of row slices). Wider windows — downscales past ~15x —
// take the clamped int32 loop, whose bytes are the same: clip8 equals the
// packed pass's truncating store wherever the table is packable.
const vertRegTaps = 32

func resampleVerticalInto(dst, src *Image, rc *ResampleCoeffs) {
	if rc.KSize <= vertRegTaps {
		resampleVerticalPacked(dst, src, rc)
		return
	}
	resampleVerticalClamped(dst, src, rc)
}

// resampleVerticalClamped is the vertical pass for any table: one int32
// accumulator per byte of the row, clamped on store.
func resampleVerticalClamped(dst, src *Image, rc *ResampleCoeffs) {
	w3 := src.W * 3
	acc := getI32(w3)
	for y := 0; y < dst.H; y++ {
		for i := range acc {
			acc[i] = coeffHalf
		}
		base := y * rc.KSize
		n := int(rc.Counts[y])
		lo := int(rc.Bounds[y])
		for k := 0; k < n; k++ {
			t := rc.Taps[base+k]
			if t == 0 {
				continue
			}
			row := src.Pix[(lo+k)*w3 : (lo+k+1)*w3]
			for i, v := range row {
				acc[i] += t * int32(v)
			}
		}
		orow := dst.Pix[y*w3 : (y+1)*w3]
		for i, v := range acc {
			orow[i] = clip8(v)
		}
	}
	putI32(acc)
}

// resampleVerticalPacked is the packed register pass for tables of at most
// vertRegTaps taps: adjacent bytes ride two per uint64 (vertical taps are
// shared across columns), and four columns are accumulated in registers
// while walking the tap rows in lockstep, so there is no accumulator array
// to read-modify-write and the store is clamp-free for the same tap-sum
// reason as the horizontal path. A row whose window has two taps — every
// interior row of a bilinear upscale — takes vertical2 instead.
func resampleVerticalPacked(dst, src *Image, rc *ResampleCoeffs) {
	w3 := src.W * 3
	var rows [vertRegTaps][]uint8
	var uts [vertRegTaps]uint64
	for y := 0; y < dst.H; y++ {
		base := y * rc.KSize
		n := int(rc.Counts[y])
		lo := int(rc.Bounds[y])
		orow := dst.Pix[y*w3 : (y+1)*w3]
		if n == 2 {
			vertical2(orow, src.Pix[lo*w3:(lo+1)*w3], src.Pix[(lo+1)*w3:(lo+2)*w3],
				uint64(uint32(rc.Taps[base])), uint64(uint32(rc.Taps[base+1])))
			continue
		}
		for k := 0; k < n; k++ {
			rows[k] = src.Pix[(lo+k)*w3 : (lo+k+1)*w3]
			uts[k] = uint64(uint32(rc.Taps[base+k]))
		}
		j := 0
		for ; j+3 < w3; j += 4 {
			a0, a1 := packedHalf, packedHalf
			for k := 0; k < n; k++ {
				r := rows[k]
				ut := uts[k]
				a0 += ut * (uint64(r[j]) | uint64(r[j+1])<<32)
				a1 += ut * (uint64(r[j+2]) | uint64(r[j+3])<<32)
			}
			orow[j] = uint8(a0 >> coeffPrecision)
			orow[j+1] = uint8(a0 >> (32 + coeffPrecision))
			orow[j+2] = uint8(a1 >> coeffPrecision)
			orow[j+3] = uint8(a1 >> (32 + coeffPrecision))
		}
		for ; j < w3; j++ {
			a := uint64(coeffHalf)
			for k := 0; k < n; k++ {
				a += uts[k] * uint64(rows[k][j])
			}
			orow[j] = uint8(a >> coeffPrecision)
		}
	}
}

// lanePair masks bytes j and j+4 of a little-endian 64-bit word into the
// low and high 32-bit lanes of a packed accumulator.
const lanePair = 0x000000ff000000ff

// vertical2SWAR is the definition of vertical2: output byte j is
// (coeffHalf + t0*r0[j] + t1*r1[j]) >> coeffPrecision, truncated to 8 bits.
// It goes eight bytes at a time: one 64-bit load per source row, whose bytes
// (j, j+4), (j+1, j+5), (j+2, j+6), (j+3, j+7) ride the two lanes of four
// accumulators, four multiplies per source row, and one 64-bit store of
// the shifted lanes. Each lane ends in 0..255 (DESIGN §7), so masking the
// shifted accumulator with lanePair extracts both output bytes exactly;
// taps below 2^23 each keep a lane from carrying into the next.
func vertical2SWAR(orow, r0, r1 []uint8, t0, t1 uint64) {
	n := len(orow)
	r0, r1 = r0[:n], r1[:n]
	j := 0
	for ; j+8 <= n; j += 8 {
		x0 := binary.LittleEndian.Uint64(r0[j:])
		x1 := binary.LittleEndian.Uint64(r1[j:])
		a0 := packedHalf + t0*(x0&lanePair) + t1*(x1&lanePair)
		a1 := packedHalf + t0*(x0>>8&lanePair) + t1*(x1>>8&lanePair)
		a2 := packedHalf + t0*(x0>>16&lanePair) + t1*(x1>>16&lanePair)
		a3 := packedHalf + t0*(x0>>24&lanePair) + t1*(x1>>24&lanePair)
		binary.LittleEndian.PutUint64(orow[j:],
			a0>>coeffPrecision&lanePair|
				(a1>>coeffPrecision&lanePair)<<8|
				(a2>>coeffPrecision&lanePair)<<16|
				(a3>>coeffPrecision&lanePair)<<24)
	}
	for ; j < n; j++ {
		orow[j] = uint8((uint64(coeffHalf) + t0*uint64(r0[j]) + t1*uint64(r1[j])) >> coeffPrecision)
	}
}

// horizontal2Scalar is the definition of horizontal2 over an expansion's
// entries: output byte j is (coeffHalf + t0[j]*row[off[j]] +
// t1[j]*row[off[j]+3]) >> coeffPrecision, truncated to 8 bits. off indexes
// the whole row, so a tail of the expansion runs against the row as it is.
func horizontal2Scalar(orow, row []uint8, off, t0, t1 []int32) {
	off, t0, t1 = off[:len(orow)], t0[:len(orow)], t1[:len(orow)]
	for j, o := range off {
		orow[j] = uint8((coeffHalf + uint32(t0[j])*uint32(row[o]) + uint32(t1[j])*uint32(row[o+3])) >> coeffPrecision)
	}
}

// ---------------------------------------------------------------------------
// Crop / flip
// ---------------------------------------------------------------------------

// Crop extracts the rectangle [x0, x0+w) x [y0, y0+h). The rectangle must
// lie inside the image. The result is pooled; Release it when done.
func Crop(im *Image, x0, y0, w, h int) *Image {
	if x0 < 0 || y0 < 0 || x0+w > im.W || y0+h > im.H || w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: crop (%d,%d,%d,%d) outside %dx%d", x0, y0, w, h, im.W, im.H))
	}
	out := GetImage(w, h)
	CropInto(out, im, x0, y0)
	return out
}

// CropInto fills dst with the dst.W x dst.H rectangle of im anchored at
// (x0, y0). dst must not alias im.
func CropInto(dst, im *Image, x0, y0 int) {
	w, h := dst.W, dst.H
	if x0 < 0 || y0 < 0 || x0+w > im.W || y0+h > im.H {
		panic(fmt.Sprintf("imaging: crop (%d,%d,%d,%d) outside %dx%d", x0, y0, w, h, im.W, im.H))
	}
	for y := 0; y < h; y++ {
		src := im.Pix[((y0+y)*im.W+x0)*3 : ((y0+y)*im.W+x0+w)*3]
		copy(dst.Pix[y*w*3:(y+1)*w*3], src)
	}
}

// flipStack is the widest row, in bytes, FlipHorizontalInPlace copies into
// a stack buffer: 1365 pixels. A wider image's rows share one heap buffer.
const flipStack = 4096

// FlipHorizontalInPlace mirrors the image left-right in place and returns
// the receiver — the zero-allocation variant the pipeline uses when it owns
// the sample's image. Each row is copied aside and reversed back out of
// place by flipRow.
func FlipHorizontalInPlace(im *Image) *Image {
	w3 := im.W * 3
	var stack [flipStack]uint8
	tmp := stack[:]
	if w3 > len(tmp) {
		tmp = make([]uint8, w3)
	}
	tmp = tmp[:w3]
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*w3 : (y+1)*w3]
		copy(tmp, row)
		flipRow(row, tmp)
	}
	return im
}

// flipScalar is the definition of flipRow: dst holds src's 3-byte pixels in
// reverse order. dst and src are the same length and do not overlap.
func flipScalar(dst, src []uint8) {
	src = src[:len(dst)]
	for x, j := 0, len(src)-3; j >= 0; x, j = x+3, j-3 {
		dst[x] = src[j]
		dst[x+1] = src[j+1]
		dst[x+2] = src[j+2]
	}
}

// RandomResizedCropParams picks the crop geometry exactly as torchvision
// does: sample area in [0.08, 1.0] of the source and aspect ratio in
// [3/4, 4/3] up to 10 times; fall back to a center crop.
func RandomResizedCropParams(w, h int, r *rng.Stream) (x0, y0, cw, ch int) {
	area := float64(w * h)
	for attempt := 0; attempt < 10; attempt++ {
		target := area * r.Uniform(0.08, 1.0)
		logRatio := r.Uniform(math.Log(3.0/4.0), math.Log(4.0/3.0))
		ratio := math.Exp(logRatio)
		cw = int(math.Round(math.Sqrt(target * ratio)))
		ch = int(math.Round(math.Sqrt(target / ratio)))
		if cw > 0 && ch > 0 && cw <= w && ch <= h {
			x0 = r.Intn(w - cw + 1)
			y0 = r.Intn(h - ch + 1)
			return x0, y0, cw, ch
		}
	}
	// Fallback: central crop of the largest inscribed square-ish region.
	cw, ch = w, h
	if cw > ch {
		cw = ch
	} else {
		ch = cw
	}
	return (w - cw) / 2, (h - ch) / 2, cw, ch
}

// ---------------------------------------------------------------------------
// 3-D volumes (the IS pipeline's kits19-like data)
// ---------------------------------------------------------------------------

// Volume is a single-channel float32 3-D volume, [D, H, W] row-major.
type Volume struct {
	D, H, W int
	Vox     []float32
}

// SynthesizeVolume fills a volume with a deterministic blob pattern: a dim
// background with a bright "foreground" ellipsoid, mimicking a CT scan with
// a segmentation target, which RandBalancedCrop needs. The result is
// pooled.
func SynthesizeVolume(d, h, w int, seed int64) *Volume {
	v := GetVolume(d, h, w)
	s := rng.NewFromSeed(seed)
	cx := s.Uniform(0.3, 0.7) * float64(w)
	cy := s.Uniform(0.3, 0.7) * float64(h)
	cz := s.Uniform(0.3, 0.7) * float64(d)
	rad := s.Uniform(0.1, 0.25) * float64(minInt(d, minInt(h, w)))
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dx, dy, dz := float64(x)-cx, float64(y)-cy, float64(z)-cz
				dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
				val := float32(20 + 5*math.Sin(float64(x+y+z)/7))
				if dist < rad {
					val = float32(200 - dist)
				}
				v.Vox[(z*h+y)*w+x] = val
			}
		}
	}
	return v
}

// CropVolume extracts a sub-volume. The result is pooled; Release it when
// done.
func CropVolume(v *Volume, z0, y0, x0, d, h, w int) *Volume {
	if z0 < 0 || y0 < 0 || x0 < 0 || z0+d > v.D || y0+h > v.H || x0+w > v.W {
		panic(fmt.Sprintf("imaging: volume crop out of range (%d,%d,%d %dx%dx%d) of %dx%dx%d",
			z0, y0, x0, d, h, w, v.D, v.H, v.W))
	}
	out := GetVolume(d, h, w)
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			src := v.Vox[((z0+z)*v.H+(y0+y))*v.W+x0:]
			copy(out.Vox[(z*h+y)*w:(z*h+y)*w+w], src[:w])
		}
	}
	return out
}

// ForegroundCenter finds the centroid of voxels above the threshold, used by
// RandBalancedCrop's foreground-aware sampling. ok is false when no voxel
// exceeds the threshold.
func (v *Volume) ForegroundCenter(threshold float32) (z, y, x int, ok bool) {
	var sz, sy, sx, n int
	for zz := 0; zz < v.D; zz++ {
		for yy := 0; yy < v.H; yy++ {
			base := (zz*v.H + yy) * v.W
			for xx := 0; xx < v.W; xx++ {
				if v.Vox[base+xx] > threshold {
					sz += zz
					sy += yy
					sx += xx
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0, 0, 0, false
	}
	return sz / n, sy / n, sx / n, true
}

// FlipVolumeAxis reverses the volume along axis (0=D, 1=H, 2=W), in place,
// and returns the receiver.
func FlipVolumeAxis(v *Volume, axis int) *Volume {
	switch axis {
	case 0:
		for z := 0; z < v.D/2; z++ {
			a := v.Vox[z*v.H*v.W : (z+1)*v.H*v.W]
			b := v.Vox[(v.D-1-z)*v.H*v.W : (v.D-z)*v.H*v.W]
			for i := range a {
				a[i], b[i] = b[i], a[i]
			}
		}
	case 1:
		for z := 0; z < v.D; z++ {
			for y := 0; y < v.H/2; y++ {
				a := v.Vox[(z*v.H+y)*v.W : (z*v.H+y+1)*v.W]
				b := v.Vox[(z*v.H+v.H-1-y)*v.W : (z*v.H+v.H-y)*v.W]
				for i := range a {
					a[i], b[i] = b[i], a[i]
				}
			}
		}
	case 2:
		for z := 0; z < v.D; z++ {
			for y := 0; y < v.H; y++ {
				row := v.Vox[(z*v.H+y)*v.W : (z*v.H+y+1)*v.W]
				for i, j := 0, v.W-1; i < j; i, j = i+1, j-1 {
					row[i], row[j] = row[j], row[i]
				}
			}
		}
	default:
		panic(fmt.Sprintf("imaging: flip axis %d out of range", axis))
	}
	return v
}

// ScaleVolume multiplies every voxel by factor in place (brightness
// augmentation for volumes) and returns the receiver.
func ScaleVolume(v *Volume, factor float32) *Volume {
	for i := range v.Vox {
		v.Vox[i] *= factor
	}
	return v
}

// AddGaussianNoise adds N(0, stddev) noise voxel-wise in place and returns
// the receiver.
func AddGaussianNoise(v *Volume, stddev float64, r *rng.Stream) *Volume {
	for i := range v.Vox {
		v.Vox[i] += float32(r.Normal(0, stddev))
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
