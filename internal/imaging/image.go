// Package imaging implements the real pixel-processing kernels behind the
// preprocessing operations: a simplified JPEG-style codec (color conversion,
// 8x8 DCT, quantization, zigzag run-length entropy coding), separable
// bilinear resampling with coefficient precomputation, cropping and flipping
// for 2-D RGB images; cropping, flipping, brightness scaling and Gaussian
// noise for 3-D volumes.
//
// The algorithms are faithful simplifications of the libjpeg / Pillow code
// paths the paper profiles, so that the relative costs of the preprocessing
// operations (decode >> resample >> normalize >> flip) match the shape the
// paper reports, and so the native-kernel layer has real work to attribute.
package imaging

import (
	"fmt"

	"lotus/internal/tensor"
)

// Image is an interleaved 8-bit RGB image, row-major: Pix[(y*W+x)*3+c].
type Image struct {
	W, H int
	Pix  []uint8
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h*3)}
}

// Set writes the pixel at (x, y).
func (im *Image) Set(x, y int, r, g, b uint8) {
	i := (y*im.W + x) * 3
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// toTensorLUT sends byte v of every channel to float32(v)/255, the uint8 ->
// [0,1] conversion. Mapping through it is what keeps ToFloat32Tensor
// bit-identical to torchvision's ToTensor scaling, float32(v)/255.
var toTensorLUT [3][256]float32

func init() {
	for i := range toTensorLUT[0] {
		v := float32(i) / 255
		toTensorLUT[0][i], toTensorLUT[1][i], toTensorLUT[2][i] = v, v, v
	}
}

// ToFloat32Tensor converts the image to a [3, H, W] float32 tensor in [0, 1]
// in one pass, with no intermediate planar uint8 tensor: the fused
// unpack+convert the real ToTensor transform runs per sample.
func (im *Image) ToFloat32Tensor() *tensor.Tensor {
	t := tensor.Zeros(tensor.Float32, 3, im.H, im.W)
	im.MapInto(t.F32, &toTensorLUT)
	return t
}

// MapInto writes the image as [3, H, W] float32 planes into dst, sending
// byte v of channel c to lut[c][v]: ToFloat32Tensor and any per-channel,
// per-element map after it (Normalize) in one pass over the pixels, for a
// caller that owns the destination. len(dst) must be 3*W*H. Where the CPU
// has AVX2 a gather kernel does the work (mapinto_amd64.s); its result is
// mapScalar's, bit for bit.
func (im *Image) MapInto(dst []float32, lut *[3][256]float32) {
	plane := im.H * im.W
	if len(dst) != 3*plane {
		panic(fmt.Sprintf("imaging: MapInto destination holds %d floats, a %dx%d image needs %d", len(dst), im.W, im.H, 3*plane))
	}
	mapPixels(dst[:plane], dst[plane:2*plane:2*plane], dst[2*plane:], im.Pix[:3*plane], lut)
}

// mapScalar is the definition of MapInto: r[j], g[j] and b[j] are pixel j's
// three bytes of p, each looked up in its channel's table. len(p) must be
// 3*len(r), and g and b at least len(r) long.
func mapScalar(r, g, b []float32, p []uint8, lut *[3][256]float32) {
	g, b = g[:len(r)], b[:len(r)]
	p = p[:3*len(r)]
	for j := range r {
		px := p[3*j : 3*j+3 : 3*j+3]
		r[j] = lut[0][px[0]]
		g[j] = lut[1][px[1]]
		b[j] = lut[2][px[2]]
	}
}

// SynthesizeImage deterministically fills an image with structured content
// (gradients plus texture) derived from a seed. Structured content compresses
// like a natural photo, which keeps encoded-size vs pixel-count relationships
// realistic for the synthetic datasets.
func SynthesizeImage(w, h int, seed int64) *Image {
	// Pooled: every pixel is written below, so the undefined initial
	// contents never leak. Callers on the hot path Release the image.
	im := GetImage(w, h)
	s := uint64(seed)*2862933555777941757 + 3037000493
	for y := 0; y < h; y++ {
		row := im.Pix[y*w*3 : (y+1)*w*3]
		ybase := y * 255 / max(1, h-1)
		for x := 0; x < w; x++ {
			// Smooth base gradients with a block texture overlaid.
			base := (x*255/max(1, w-1) + ybase) / 2
			s = s*6364136223846793005 + 1442695040888963407
			noise := int((s>>33)&15) - 8
			blk := int((uint(x/16)*7+uint(y/16)*13)%32) - 16
			row[x*3] = clamp8(base + blk + noise)
			row[x*3+1] = clamp8(base - blk/2 + noise)
			row[x*3+2] = clamp8(255 - base + noise)
		}
	}
	return im
}

func clamp8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
