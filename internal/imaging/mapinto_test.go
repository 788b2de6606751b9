package imaging

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// mapLUT returns tables of random bit patterns with the values a float move
// or compare could disturb planted in every channel: NaN payloads (quiet and
// signalling, both signs), -0 and ±Inf.
func mapLUT(seed uint64) *[3][256]float32 {
	r := rand.New(rand.NewPCG(seed, 40))
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

// checkMapInto requires MapInto to write exactly the bits mapScalar writes,
// in every element, and nothing outside its destination.
func checkMapInto(t *testing.T, im *Image, lut *[3][256]float32) {
	t.Helper()
	plane := im.W * im.H
	n := 3 * plane
	want := make([]float32, n)
	mapScalar(want[:plane], want[plane:2*plane], want[2*plane:], im.Pix, lut)

	const pad = 16
	canary := math.Float32frombits(0x7fbadbad)
	buf := make([]float32, pad+n+pad)
	for i := range buf {
		buf[i] = canary
	}
	got := buf[pad : pad+n : pad+n]
	im.MapInto(got, lut)
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%dx%d: channel %d pixel %d is %#08x, the scalar loop writes %#08x", im.W, im.H, i/plane, i%plane, g, w)
		}
	}
	for i := 0; i < pad; i++ {
		if math.Float32bits(buf[i]) != 0x7fbadbad || math.Float32bits(buf[pad+n+i]) != 0x7fbadbad {
			t.Fatalf("%dx%d: MapInto wrote outside its destination", im.W, im.H)
		}
	}
}

func TestMapIntoMatchesScalar(t *testing.T) {
	if !haveAVX2 {
		t.Log("no AVX2 on this CPU: MapInto is the scalar loop")
	}
	r := rand.New(rand.NewPCG(7, 40))
	random := func(w, h int) *Image {
		im := NewImage(w, h)
		for i := range im.Pix {
			im.Pix[i] = byte(r.Uint32())
		}
		return im
	}
	seed := uint64(0)
	for _, h := range []int{1, 2, 3, 7} {
		for w := 1; w <= 40; w++ {
			seed++
			checkMapInto(t, random(w, h), mapLUT(seed))
		}
	}
	for _, side := range []int{224, 256} {
		seed++
		checkMapInto(t, random(side, side), mapLUT(seed))
		// Pixel j carries byte j+85c in channel c: every (channel, byte)
		// pair, in every position of a group, many times over.
		im := NewImage(side, side)
		for i := range im.Pix {
			im.Pix[i] = byte(i/3 + 85*(i%3))
		}
		checkMapInto(t, im, mapLUT(seed))
	}
}

func FuzzMapInto(f *testing.F) {
	f.Add(uint8(7), uint8(3), uint64(1), []byte{0, 255, 128})
	f.Add(uint8(39), uint8(6), uint64(2), []byte("gather kernel"))
	f.Add(uint8(10), uint8(0), uint64(3), []byte{})
	f.Fuzz(func(t *testing.T, w, h uint8, seed uint64, pix []byte) {
		im := NewImage(int(w)%64+1, int(h)%8+1)
		if len(pix) > 0 {
			for i := range im.Pix {
				im.Pix[i] = pix[i%len(pix)]
			}
		}
		checkMapInto(t, im, mapLUT(seed))
	})
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
	for i := 0; i < 3; i++ { // fault the destination in, warm the caches
		finish(true)
		finish(false)
	}
	var kernel, scalar time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 10; k++ {
			if k%2 == 0 {
				kernel += finish(true)
				scalar += finish(false)
			} else {
				scalar += finish(false)
				kernel += finish(true)
			}
		}
	}
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
