package imaging

// flipKernel writes blocks 5-pixel blocks of flipRow's output at dst. Block
// k loads the 16 bytes at src-15k, reverses the 5 pixels in their last 15 and
// stores 16 bytes at dst+15k: its pixels and one byte past them, which the
// next block or the caller rewrites. It reads nothing below src-15(blocks-1)
// and writes nothing at or past dst+15*blocks+1.
//
//go:noescape
func flipKernel(dst, src *uint8, blocks int)

// flipRow is flipScalar with the 5-pixel blocks whose 16-byte loads and
// stores fit inside the row done by flipKernel, where the CPU has AVX2. The
// scalar loop finishes the tail, which always holds at least one pixel, so it
// rewrites the byte the last block's store writes past its pixels.
func flipRow(dst, src []uint8) {
	n := len(dst)
	src = src[:n]
	if haveAVX2 && n >= 16 {
		blocks := (n-16)/15 + 1
		flipKernel(&dst[0], &src[n-16], blocks)
		k := 15 * blocks
		dst, src = dst[k:], src[:n-k]
	}
	flipScalar(dst, src)
}
