package imaging

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"
	"unsafe"

	"lotus/internal/rng"
)

// The differential harness. Every vectorized kernel in the package is one
// row of kernels: its scalar reference (the definition it must match bit
// for bit), the entry point that selects it, an input generator, and the
// sizes the tests run. Three tests range over the table — the identity
// test, the fuzzer and the guard-page test — and keep the names they had
// when MapInto was the only row. A kernel's invariant is two clauses: the
// entry point writes exactly the reference's bytes, and it reads and writes
// nothing outside its buffers.

// A kernelFunc is an entry point or a reference over byte buffers: it reads
// in, writes out and takes its scalar arguments in args.
type kernelFunc func(out []byte, in [][]byte, args []uint64)

// A kernelInput is one drawn call: the buffers it reads, its scalar
// arguments, and the length of the buffer it writes.
type kernelInput struct {
	in     [][]byte
	args   []uint64
	outLen int
}

type kernelCase struct {
	name string
	// bufs names the buffers a call touches: its inputs, then its output.
	bufs       []string
	ref, entry kernelFunc
	// gen draws a call of size n from r. Pixel bytes repeat pat when it is
	// not empty.
	gen func(r *rand.Rand, n int, pat []byte) kernelInput
	// sizes are the sizes the identity test runs, guard those the
	// guard-page test runs, and the fuzzer draws sizes 1..fuzzMax.
	sizes, guard []int
	fuzzMax      int
}

var kernels = []kernelCase{
	{
		// Size n is n pixels: Pix holds 3n bytes, dst 3n floats.
		name: "MapInto",
		bufs: []string{"Pix", "lut", "dst"},
		ref: func(out []byte, in [][]byte, _ []uint64) {
			dst, plane := asFloats(out), len(in[0])/3
			mapScalar(dst[:plane], dst[plane:2*plane], dst[2*plane:], in[0], asLUT(in[1]))
		},
		entry: func(out []byte, in [][]byte, _ []uint64) {
			(&Image{W: len(in[0]) / 3, H: 1, Pix: in[0]}).MapInto(asFloats(out), asLUT(in[1]))
		},
		gen: func(r *rand.Rand, n int, pat []byte) kernelInput {
			lut := mapLUT(r)
			table := unsafe.Slice((*byte)(unsafe.Pointer(lut)), unsafe.Sizeof(*lut))
			return kernelInput{in: [][]byte{kernelPixels(r, 3*n, pat), table}, outLen: 12 * n}
		},
		sizes:   append(sizeRange(1, 280), 224*224, 256*256),
		guard:   append(sizeRange(1, 136), 224*224, 256*256),
		fuzzMax: 512,
	},
	{
		// Size n is a row of n bytes; 672 is a served 224-px row. Half the
		// tap pairs sum to coeffOne, as resize makes them; the other half are
		// random taps below 2^23 each, whose sums run far enough past
		// coeffOne that the shifted lane exceeds 255 and only the truncation
		// to 8 bits keeps the SWAR loop's bytes.
		name:  "vertical2",
		bufs:  []string{"r0", "r1", "orow"},
		ref:   func(out []byte, in [][]byte, t []uint64) { vertical2SWAR(out, in[0], in[1], t[0], t[1]) },
		entry: func(out []byte, in [][]byte, t []uint64) { vertical2(out, in[0], in[1], t[0], t[1]) },
		gen: func(r *rand.Rand, n int, pat []byte) kernelInput {
			t0, t1 := r.Uint64N(1<<23), r.Uint64N(1<<23)
			if r.IntN(2) == 0 {
				t0 = r.Uint64N(coeffOne + 1)
				t1 = coeffOne - t0
			}
			return kernelInput{
				in:     [][]byte{kernelPixels(r, n, pat), kernelPixels(r, n, pat)},
				args:   []uint64{t0, t1},
				outLen: n,
			}
		},
		sizes:   sizeRange(1, 800),
		guard:   append(sizeRange(1, 200), 672),
		fuzzMax: 1024,
	},
	{
		// Size n is a geometry (h2Geometry): n <= 225 is a served window side
		// n resized to 224, n above is a source of n-224 pixels to any output
		// width whose windows have at most two taps. Args are the source and
		// output widths and a tap seed: 0 keeps the table's taps, anything
		// else draws random taps below 2^23 each, which only the truncation
		// to 8 bits keeps equal to the packed pass.
		name: "horizontal2",
		bufs: []string{"row", "off", "t0", "t1", "orow"},
		ref: func(out []byte, in [][]byte, a []uint64) {
			src, dst := int(a[0]), int(a[1])
			// Four copies of the row: the packed pass's main loop, the one a
			// served resize runs, computes the reference.
			rows := &Image{W: src, H: 4, Pix: bytes.Repeat(in[0], 4)}
			o := &Image{W: dst, H: 4, Pix: make([]byte, 4*len(out))}
			resampleHorizontalPacked(o, rows, h2Table(src, dst, a[2]))
			copy(out, o.Pix)
		},
		entry: func(out []byte, in [][]byte, _ []uint64) {
			horizontal2(out, in[0], &tapPairs{asInt32s(in[1]), asInt32s(in[2]), asInt32s(in[3])})
		},
		gen: func(r *rand.Rand, n int, pat []byte) kernelInput {
			src, dst := h2Geometry(r, n)
			seed := uint64(0)
			if r.IntN(2) == 0 {
				seed = 1 + r.Uint64N(1<<32)
			}
			p := h2Table(src, dst, seed).twoTapPairs(src)
			return kernelInput{
				in:     [][]byte{kernelPixels(r, 3*src, pat), asBytes(p.off), asBytes(p.t0), asBytes(p.t1)},
				args:   []uint64{uint64(src), uint64(dst), seed},
				outLen: 3 * dst,
			}
		},
		sizes:   sizeRange(2, 224+300),
		guard:   append(sizeRange(2, 64), 100, 150, 200, 224, 225, 226, 227, 228, 250, 300, 350),
		fuzzMax: 224 + 300,
	},
	{
		// Size n is a row of n pixels.
		name:  "flip",
		bufs:  []string{"src", "dst"},
		ref:   func(out []byte, in [][]byte, _ []uint64) { flipScalar(out, in[0]) },
		entry: func(out []byte, in [][]byte, _ []uint64) { flipRow(out, in[0]) },
		gen: func(r *rand.Rand, n int, pat []byte) kernelInput {
			return kernelInput{in: [][]byte{kernelPixels(r, 3*n, pat)}, outLen: 3 * n}
		},
		sizes:   append(sizeRange(1, 400), 1365, 1366),
		guard:   append(sizeRange(1, 120), 224, 256),
		fuzzMax: 512,
	},
	{
		// Size n is a row of n pixels; the one arg is fy.
		name: "convertRow420",
		bufs: []string{"y", "cb0", "cb1", "cr0", "cr1", "out"},
		ref: func(out []byte, in [][]byte, a []uint64) {
			convertRow420Scalar(out, asInt32s(in[0]), asInt32s(in[1]), asInt32s(in[2]), asInt32s(in[3]), asInt32s(in[4]), int32(a[0]))
		},
		entry: func(out []byte, in [][]byte, a []uint64) {
			convertRow420(out, asInt32s(in[0]), asInt32s(in[1]), asInt32s(in[2]), asInt32s(in[3]), asInt32s(in[4]), int32(a[0]))
		},
		gen: func(r *rand.Rand, n int, pat []byte) kernelInput {
			fy := uint64(r.IntN(4))
			if r.IntN(4) == 0 {
				fy = uint64(r.Uint32())
			}
			inRange := r.IntN(2) == 0
			c := kernelInput{args: []uint64{fy}, outLen: 3 * n}
			for range 5 {
				c.in = append(c.in, kernelLanes(r, n, pat, inRange))
			}
			return c
		},
		sizes:   sizeRange(1, 800),
		guard:   append(sizeRange(1, 100), 224, 256),
		fuzzMax: 800,
	},
	{
		// Size n is the window stride max(n, 8). Inputs are the block and the
		// window as it was before the store, which both sides copy into their
		// output first, so a write between the block's rows shows.
		name: "idct",
		bufs: []string{"blk", "under", "dst"},
		ref: func(out []byte, in [][]byte, a []uint64) {
			blk := *asBlock(in[0])
			copy(out, in[1])
			idct8x8(&blk)
			storeBlock(&blk, asInt32s(out), int(a[0]))
		},
		entry: func(out []byte, in [][]byte, a []uint64) {
			blk := *asBlock(in[0])
			copy(out, in[1])
			idctStore(&blk, asInt32s(out), int(a[0]))
		},
		gen: func(r *rand.Rand, n int, pat []byte) kernelInput {
			stride := max(n, 8)
			dst := 4 * (7*stride + 8)
			return kernelInput{
				in:     [][]byte{asBytes(idctBlock(r, pat)[:]), kernelPixels(r, dst, nil)},
				args:   []uint64{uint64(stride)},
				outLen: dst,
			}
		},
		sizes:   repeatSizes(sizeRange(8, 64), 40),
		guard:   repeatSizes(sizeRange(8, 64), 4),
		fuzzMax: 64,
	},
}

// kernelLanes returns n int32 lanes as bytes: pat repeated when it is not
// empty, else runs of one value, of random values and of ramps, each run
// 1..64 long, drawn inside ±4500 (the decoder's upsampled chroma reaches
// ±4096) when inRange is set and as raw 32-bit patterns when not.
func kernelLanes(r *rand.Rand, n int, pat []byte, inRange bool) []byte {
	if len(pat) > 0 {
		return kernelPixels(r, 4*n, pat)
	}
	draw := func() int32 {
		if inRange {
			return r.Int32N(9001) - 4500
		}
		return int32(r.Uint32())
	}
	v := make([]int32, n)
	for i := 0; i < n; {
		run := min(n-i, 1+r.IntN(64))
		kind, base := r.IntN(3), draw()
		for j := range run {
			switch kind {
			case 0:
				v[i+j] = base
			case 1:
				v[i+j] = draw()
			default:
				v[i+j] = base + int32(j)
			}
		}
		i += run
	}
	return asBytes(v)
}

// idctBlock draws a dequantized block inside the decoder's ±dequantClamp:
// dense, sparse, with only column 0 set (every row takes idct8x8's DC-only
// shortcut), or every coefficient at ±dequantClamp. Coefficients come from
// pat when it is not empty.
func idctBlock(r *rand.Rand, pat []byte) *[64]int32 {
	var blk [64]int32
	coeff := func() int32 { return r.Int32N(2*dequantClamp+1) - dequantClamp }
	if len(pat) > 0 {
		b := kernelPixels(r, 128, pat)
		coeff = func() int32 {
			v := int32(int16(uint16(b[0]) | uint16(b[1])<<8))
			b = b[2:]
			return v % (dequantClamp + 1)
		}
	}
	switch r.IntN(4) {
	case 0:
		for i := range blk {
			blk[i] = coeff()
		}
	case 1:
		for range 1 + r.IntN(6) {
			blk[r.IntN(64)] = coeff()
		}
	case 2:
		for y := range 8 {
			blk[8*y] = coeff()
		}
	default:
		for i := range blk {
			blk[i] = dequantClamp * (1 - 2*r.Int32N(2))
		}
	}
	return &blk
}

func asBlock(b []byte) *[64]int32 {
	return (*[64]int32)(unsafe.Pointer(&b[0]))
}

// h2Geometry maps horizontal2's size n to a source and output width whose
// table has an expansion. n <= 225 is a served window: side max(n, 2) to 224.
// Above, the source is n-224 pixels: 2 pixels go to 1, the only 1-px output
// with two taps, and wider sources to an output drawn from a downscale to
// 1..src, src-1, src itself (every window one tap) and upscales, odd and
// even; a draw whose windows exceed two taps becomes an upscale.
func h2Geometry(r *rand.Rand, n int) (src, dst int) {
	if n <= 225 {
		return max(n, 2), 224
	}
	src = n - 224
	if src == 2 {
		return 2, 1
	}
	switch r.IntN(4) {
	case 0:
		dst = 1 + r.IntN(src)
	case 1:
		dst = max(src-1, 1)
	case 2:
		dst = src
	default:
		dst = src + 1 + r.IntN(2*src)
	}
	if PrecomputeCoeffs(src, dst).twoTapPairs(src) == nil {
		dst = src + r.IntN(src+1)
	}
	return src, dst
}

// h2Table is the bilinear table from src to dst pixels, with its live taps
// replaced by random ones below 2^23 drawn from seed unless seed is 0.
func h2Table(src, dst int, seed uint64) *ResampleCoeffs {
	rc := PrecomputeCoeffs(src, dst)
	if seed == 0 {
		return rc
	}
	r := rand.New(rand.NewPCG(seed, 42))
	for x, n := range rc.Counts {
		for k := range int(n) {
			t := r.Int32N(1 << 23)
			rc.Taps[x*rc.KSize+k] = t
			for c := range 3 {
				rc.TapsP[3*(x*rc.KSize+k)+c] = uint64(t)
			}
		}
	}
	return rc
}

func sizeRange(lo, hi int) []int {
	s := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		s = append(s, n)
	}
	return s
}

// repeatSizes is sizes, k times over.
func repeatSizes(sizes []int, k int) []int {
	var s []int
	for range k {
		s = append(s, sizes...)
	}
	return s
}

// kernelPixels returns n bytes: pat repeated from a random start when pat is
// not empty, else runs of 0, of 255, of random bytes and of a ramp through
// every byte value, each run 1..64 long.
func kernelPixels(r *rand.Rand, n int, pat []byte) []byte {
	b := make([]byte, n)
	if len(pat) > 0 {
		start := r.IntN(len(pat))
		for i := range b {
			b[i] = pat[(start+i)%len(pat)]
		}
		return b
	}
	for i := 0; i < n; {
		run := min(n-i, 1+r.IntN(64))
		kind, ramp := r.IntN(4), byte(r.Uint32())
		for j := range run {
			switch kind {
			case 0:
				b[i+j] = 0
			case 1:
				b[i+j] = 255
			case 2:
				b[i+j] = byte(r.Uint32())
			default:
				b[i+j] = ramp + byte(j)
			}
		}
		i += run
	}
	return b
}

// mapLUT returns tables of random bit patterns with the values a float move
// or compare could disturb planted in every channel: NaN payloads (quiet and
// signalling, both signs), -0 and ±Inf.
func mapLUT(r *rand.Rand) *[3][256]float32 {
	special := []uint32{0x7fc00001, 0xffc12345, 0x7f800001, 0xff812345, 0x80000000, 0x7f800000, 0xff800000}
	var lut [3][256]float32
	for c := range lut {
		for v := range lut[c] {
			lut[c][v] = math.Float32frombits(r.Uint32())
		}
		for i, bits := range special {
			lut[c][(37*i+11*c)%256] = math.Float32frombits(bits)
		}
	}
	return &lut
}

// asFloats and asLUT view a buffer's bytes as MapInto's destination and
// table; the harness compares and places every buffer as bytes.
func asFloats(b []byte) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func asLUT(b []byte) *[3][256]float32 {
	return (*[3][256]float32)(unsafe.Pointer(&b[0]))
}

// asInt32s and asBytes view an expansion's entries as bytes and back.
func asInt32s(b []byte) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func asBytes(v []int32) []byte {
	return bytes.Clone(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)))
}

// check runs k's entry point over in into out and requires the bytes its
// reference writes over the same input in buffers of its own.
func (k *kernelCase) check(t *testing.T, what string, c kernelInput, in [][]byte, out []byte) {
	t.Helper()
	want := make([]byte, c.outLen)
	k.ref(want, c.in, c.args)
	k.entry(out, in, c.args)
	if !bytes.Equal(out, want) {
		i := 0
		for out[i] == want[i] {
			i++
		}
		t.Fatalf("%s %s: output byte %d of %d is %#02x, the reference writes %#02x (args %v)",
			k.name, what, i, c.outLen, out[i], want[i], c.args)
	}
}

// checkPadded is check into an output with canary bytes on both sides,
// which the entry point must leave as they are.
func (k *kernelCase) checkPadded(t *testing.T, what string, c kernelInput) {
	t.Helper()
	const pad, canary = 64, 0xad
	buf := bytes.Repeat([]byte{canary}, pad+c.outLen+pad)
	k.check(t, what, c, c.in, buf[pad:pad+c.outLen:pad+c.outLen])
	edge := bytes.Repeat([]byte{canary}, pad)
	if !bytes.Equal(buf[:pad], edge) || !bytes.Equal(buf[pad+c.outLen:], edge) {
		t.Fatalf("%s %s: wrote outside its output", k.name, what)
	}
}

// TestMapIntoMatchesScalar is the harness's identity test: every kernel's
// entry point writes its reference's bytes at every size in its row.
func TestMapIntoMatchesScalar(t *testing.T) {
	if !haveAVX2 {
		t.Log("no AVX2 on this CPU: every entry point is its reference")
	}
	for i := range kernels {
		k := &kernels[i]
		t.Run(k.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(7, uint64(i)))
			for _, n := range k.sizes {
				k.checkPadded(t, fmt.Sprintf("size %d", n), k.gen(r, n, nil))
			}
		})
	}
}

// FuzzMapInto is the harness's fuzzer: each input runs every kernel, at a
// size of n folded into its row's range, with pixels repeating pat.
func FuzzMapInto(f *testing.F) {
	f.Add(uint16(21), uint64(1), []byte{0, 255, 128})
	f.Add(uint16(234), uint64(2), []byte("gather kernel"))
	f.Add(uint16(9), uint64(3), []byte{})
	f.Add(uint16(671), uint64(4), []byte{255})
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, pat []byte) {
		for i := range kernels {
			k := &kernels[i]
			size := int(n)%k.fuzzMax + 1
			k.checkPadded(t, fmt.Sprintf("size %d", size), k.gen(rand.New(rand.NewPCG(seed, 40)), size, pat))
		}
	})
}

// interleave times pass through a kernel and through its reference, rounds
// of each per benchmark iteration in alternating order, after three of each
// that fault the buffers in and warm the caches, and returns both totals.
func interleave(b *testing.B, rounds int, pass func(kernel bool) time.Duration) (kernel, ref time.Duration) {
	for i := 0; i < 3; i++ {
		pass(true)
		pass(false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < rounds; k++ {
			if k%2 == 0 {
				kernel += pass(true)
				ref += pass(false)
			} else {
				ref += pass(false)
				kernel += pass(true)
			}
		}
	}
	return kernel, ref
}

// BenchmarkMapInto times the finish of one served batch, 32 synthesized 256²
// samples into one batch-sized destination, through MapInto and through the
// scalar loop, interleaved in one process. Where the CPU has AVX2 it fails
// itself unless MapInto costs <= 0.7x the scalar loop.
func BenchmarkMapInto(b *testing.B) {
	const n, side = 32, 256
	const plane, per = side * side, 3 * side * side
	ims := make([]*Image, n)
	for i := range ims {
		ims[i] = SynthesizeImage(side, side, int64(i))
	}
	dst := make([]float32, n*per)
	lut := new([3][256]float32)
	for c, ms := range [3][2]float32{{0.485, 0.229}, {0.456, 0.224}, {0.406, 0.225}} {
		for v := range lut[c] {
			lut[c][v] = (float32(v)/255 - ms[0]) / ms[1]
		}
	}
	finish := func(kernel bool) time.Duration {
		start := time.Now()
		for i, im := range ims {
			out := dst[i*per : (i+1)*per]
			if kernel {
				im.MapInto(out, lut)
			} else {
				mapScalar(out[:plane], out[plane:2*plane], out[2*plane:], im.Pix, lut)
			}
		}
		return time.Since(start)
	}
	kernel, scalar := interleave(b, 10, finish)
	px := float64(b.N * 10 * n * plane)
	ratio := float64(kernel) / float64(scalar)
	b.ReportMetric(float64(kernel.Nanoseconds())/px, "kernel-ns/px")
	b.ReportMetric(float64(scalar.Nanoseconds())/px, "scalar-ns/px")
	b.ReportMetric(ratio, "kernel/scalar")
	if !haveAVX2 {
		b.Logf("no AVX2 on this CPU: MapInto is the scalar loop (%.2fx), nothing to gate", ratio)
		return
	}
	if ratio > 0.7 {
		b.Fatalf("MapInto costs %.2fx the scalar loop, want <= 0.7x", ratio)
	}
}

// BenchmarkVertical2 times the two-tap vertical pass of a 2x upscale to
// 224², row by row as resampleVerticalPacked calls it: 224 calls, each one
// 672-byte output row from two source rows, through vertical2 and through
// vertical2SWAR, interleaved in one process. Where the CPU has AVX2 it fails
// itself unless vertical2 costs <= 0.4x the SWAR loop per call.
func BenchmarkVertical2(b *testing.B) {
	const rows, w3 = 224, 3 * 224
	src := SynthesizeImage(224, rows/2+1, 1).Pix
	dst := make([]byte, rows*w3)
	pass := func(kernel bool) time.Duration {
		start := time.Now()
		for y := range rows {
			lo := y / 2 * w3
			orow, r0, r1 := dst[y*w3:(y+1)*w3], src[lo:lo+w3], src[lo+w3:lo+2*w3]
			t0 := uint64(coeffOne/4 + y%2*coeffOne/2)
			if kernel {
				vertical2(orow, r0, r1, t0, coeffOne-t0)
			} else {
				vertical2SWAR(orow, r0, r1, t0, coeffOne-t0)
			}
		}
		return time.Since(start)
	}
	// A pair of passes is ~0.2 ms: 50 keep one preemption from deciding the
	// ratio.
	kernel, swar := interleave(b, 50, pass)
	calls := float64(b.N * 50 * rows)
	ratio := float64(kernel) / float64(swar)
	b.ReportMetric(float64(kernel.Nanoseconds())/calls, "kernel-ns/call")
	b.ReportMetric(float64(swar.Nanoseconds())/calls, "swar-ns/call")
	b.ReportMetric(ratio, "kernel/swar")
	if !haveAVX2 {
		b.Logf("no AVX2 on this CPU: vertical2 is the SWAR loop (%.2fx), nothing to gate", ratio)
		return
	}
	if ratio > 0.4 {
		b.Fatalf("vertical2 costs %.2fx the SWAR loop per call, want <= 0.4x", ratio)
	}
}

// BenchmarkHorizontal2 times the horizontal pass of 32 served RRC windows
// (sides up to 225, whose tables carry the expansion) to 224 px wide, through
// resampleHorizontalInto and through resampleHorizontalPacked with the same
// tables, interleaved in one process. Where the CPU has AVX2 it fails itself
// unless the pass costs <= 0.5x the packed one.
func BenchmarkHorizontal2(b *testing.B) {
	const windows = 32
	r := rng.NewFromSeed(11)
	var srcs, mids []*Image
	var tables []*ResampleCoeffs
	for len(srcs) < windows {
		_, _, cw, ch := servedWindow(r)
		if cw > 225 {
			continue
		}
		srcs = append(srcs, SynthesizeImage(cw, ch, int64(len(srcs))))
		mids = append(mids, NewImage(224, ch))
		tables = append(tables, CachedCoeffs(cw, 224))
	}
	pass := func(kernel bool) time.Duration {
		start := time.Now()
		for i, im := range srcs {
			if kernel {
				resampleHorizontalInto(mids[i], im, tables[i])
			} else {
				resampleHorizontalPacked(mids[i], im, tables[i])
			}
		}
		return time.Since(start)
	}
	kernel, packed := interleave(b, 10, pass)
	n := float64(b.N * 10 * windows)
	ratio := float64(kernel) / float64(packed)
	b.ReportMetric(float64(kernel.Microseconds())/n, "kernel-µs/window")
	b.ReportMetric(float64(packed.Microseconds())/n, "packed-µs/window")
	b.ReportMetric(ratio, "kernel/packed")
	if !haveAVX2 {
		b.Logf("no AVX2 on this CPU: the pass is the packed loop (%.2fx), nothing to gate", ratio)
		return
	}
	if ratio > 0.5 {
		b.Fatalf("the horizontal pass costs %.2fx the packed loop, want <= 0.5x", ratio)
	}
}

// BenchmarkFlip times a 224² flip, as RandomHorizontalFlip makes it, through
// FlipHorizontalInPlace and through the scalar loop out of place, which skips
// the row copy the in-place flip makes, interleaved in one process. Where
// the CPU has AVX2 it fails itself unless the flip costs <= 0.5x the loop.
func BenchmarkFlip(b *testing.B) {
	const side, w3 = 224, 3 * 224
	im, out := SynthesizeImage(side, side, 1), NewImage(side, side)
	pass := func(kernel bool) time.Duration {
		start := time.Now()
		if kernel {
			FlipHorizontalInPlace(im)
		} else {
			for y := range side {
				flipScalar(out.Pix[y*w3:(y+1)*w3], im.Pix[y*w3:(y+1)*w3])
			}
		}
		return time.Since(start)
	}
	// A pair of passes is ~0.1 ms: 50 keep one preemption from deciding the
	// ratio.
	kernel, scalar := interleave(b, 50, pass)
	n := float64(b.N * 50)
	ratio := float64(kernel) / float64(scalar)
	b.ReportMetric(float64(kernel.Nanoseconds())/n, "kernel-ns/flip")
	b.ReportMetric(float64(scalar.Nanoseconds())/n, "scalar-ns/flip")
	b.ReportMetric(ratio, "kernel/scalar")
	if !haveAVX2 {
		b.Logf("no AVX2 on this CPU: the flip is the scalar loop (%.2fx), nothing to gate", ratio)
		return
	}
	if ratio > 0.5 {
		b.Fatalf("the flip costs %.2fx the scalar loop, want <= 0.5x", ratio)
	}
}

// BenchmarkConvertRow420 times the 4:2:0 colour pass of a 224² window, row
// by row as decodeRegion calls it: 224 calls, each one 224-px row from the
// level-shifted planes of a synthesized image (chroma 4x-scaled, as
// upsampleRow leaves it), through convertRow420 and through
// convertRow420Scalar, interleaved in one process. Where the CPU has AVX2 it
// fails itself unless convertRow420 costs <= 0.4x the scalar loop per row.
func BenchmarkConvertRow420(b *testing.B) {
	const rows, w = 224, 224
	planes := colorConvertForward(SynthesizeImage(w, rows+1, 5))
	for _, p := range planes[1:] {
		for i := range p {
			p[i] *= 4
		}
	}
	row := func(p []int32, i int) []int32 { return p[i*w : (i+1)*w] }
	out := make([]byte, rows*3*w)
	pass := func(kernel bool) time.Duration {
		start := time.Now()
		for i := range rows {
			orow, fy := out[i*3*w:(i+1)*3*w], int32(1+i%2*2)
			y, cb0, cb1 := row(planes[0], i), row(planes[1], i), row(planes[1], i+1)
			cr0, cr1 := row(planes[2], i), row(planes[2], i+1)
			if kernel {
				convertRow420(orow, y, cb0, cb1, cr0, cr1, fy)
			} else {
				convertRow420Scalar(orow, y, cb0, cb1, cr0, cr1, fy)
			}
		}
		return time.Since(start)
	}
	// A pair of passes is ~0.4 ms: 20 keep one preemption from deciding the
	// ratio.
	kernel, scalar := interleave(b, 20, pass)
	calls := float64(b.N * 20 * rows)
	ratio := float64(kernel) / float64(scalar)
	b.ReportMetric(float64(kernel.Nanoseconds())/calls, "kernel-ns/row")
	b.ReportMetric(float64(scalar.Nanoseconds())/calls, "scalar-ns/row")
	b.ReportMetric(ratio, "kernel/scalar")
	if !haveAVX2 {
		b.Logf("no AVX2 on this CPU: convertRow420 is the scalar loop (%.2fx), nothing to gate", ratio)
		return
	}
	if ratio > 0.4 {
		b.Fatalf("convertRow420 costs %.2fx the scalar loop per row, want <= 0.4x", ratio)
	}
}

// BenchmarkIDCT times the reconstruction of 64 blocks with AC coefficients,
// taken from a synthesized image's stream, into a 232-sample-wide window as
// decodePlane stores them: each block copied out of its slot, as
// decodeMCU's buffer is reused, then through idctStore and through idct8x8
// and storeBlock, interleaved in one process. Where the CPU has AVX2 it
// fails itself unless idctStore costs <= 0.5x the pair.
func BenchmarkIDCT(b *testing.B) {
	const blocks, stride = 64, 232
	data := EncodeSJPGSubsampled(SynthesizeImage(256, 256, 3), 85, Sub444)
	hd, err := parseSJPGHeader(data)
	if err != nil {
		b.Fatal(err)
	}
	quant := scaledQuant(&lumaQuant, hd.quality)
	rd := &byteReader{buf: data, pos: hd.body}
	var src [][64]int32
	var prevDC int64
	for len(src) < blocks {
		var blk [64]int32
		nz, dc, err := decodeMCU(&blk, rd, prevDC, &quant)
		if err != nil {
			b.Fatal(err)
		}
		prevDC = dc
		if nz > 1 {
			src = append(src, blk)
		}
	}
	const across = stride / 8
	win := make([]int32, stride*8*(blocks+across-1)/across)
	pass := func(kernel bool) time.Duration {
		start := time.Now()
		for i := range src {
			blk := src[i]
			dst := win[i/across*8*stride+i%across*8:]
			if kernel {
				idctStore(&blk, dst, stride)
			} else {
				idct8x8(&blk)
				storeBlock(&blk, dst, stride)
			}
		}
		return time.Since(start)
	}
	// A pair of passes is ~20 µs: 200 keep one preemption from deciding the
	// ratio.
	kernel, scalar := interleave(b, 200, pass)
	n := float64(b.N * 200 * blocks)
	ratio := float64(kernel) / float64(scalar)
	b.ReportMetric(float64(kernel.Nanoseconds())/n, "kernel-ns/block")
	b.ReportMetric(float64(scalar.Nanoseconds())/n, "scalar-ns/block")
	b.ReportMetric(ratio, "kernel/scalar")
	if !haveAVX2 {
		b.Logf("no AVX2 on this CPU: idctStore is idct8x8 and storeBlock (%.2fx), nothing to gate", ratio)
		return
	}
	if ratio > 0.5 {
		b.Fatalf("idctStore costs %.2fx idct8x8 and storeBlock, want <= 0.5x", ratio)
	}
}
