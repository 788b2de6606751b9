package pipeline

import (
	"bytes"
	"math/rand"
	"testing"

	"lotus/internal/imaging"
)

// refPixelNoise is RandomPixelNoise's loop as first written, one 64-bit
// divide per byte: the definition addPixelNoise is held to.
func refPixelNoise(pix []uint8, state uint64, amp int) {
	span := uint64(2*amp + 1)
	for i := range pix {
		state = state*6364136223846793005 + 1442695040888963407
		v := int(pix[i]) + int((state>>33)%span) - amp
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		pix[i] = uint8(v)
	}
}

// TestPixelNoiseMatchesReference: the fastmod, four-lane, table-clamped
// noise is the reference loop byte for byte, for every amplitude 1..32 and a
// few beyond the table, over random states and lengths that leave every
// remainder of the four lanes.
func TestPixelNoiseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	amps := []int{300, 1 << 20}
	for amp := 1; amp <= 32; amp++ {
		amps = append(amps, amp)
	}
	for _, amp := range amps {
		for trial := 0; trial < 8; trial++ {
			n := r.Intn(700) | 1
			if trial < 4 {
				n = trial // 0..3 bytes: only the tail loop
			}
			src := make([]uint8, n)
			r.Read(src)
			state := uint64(r.Int63())
			want, got := bytes.Clone(src), bytes.Clone(src)
			refPixelNoise(want, state, amp)
			addPixelNoise(got, state, amp)
			if !bytes.Equal(got, want) {
				t.Fatalf("amp %d state %#x len %d: noise differs from the reference loop", amp, state, n)
			}
		}
	}
}

var noiseSink uint8

// BenchmarkPixelNoise times the noise pass over one 224² sample against the
// reference loop.
func BenchmarkPixelNoise(b *testing.B) {
	im := imaging.SynthesizeImage(224, 224, 1)
	for _, c := range []struct {
		name string
		f    func([]uint8, uint64, int)
	}{{"fastmod", addPixelNoise}, {"reference", refPixelNoise}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(im.Pix)))
			for i := 0; i < b.N; i++ {
				c.f(im.Pix, uint64(i), 8)
			}
			noiseSink = im.Pix[0]
		})
	}
}
