package imaging

// convertRow420Kernel finishes 8*blocks pixels of convertRow420's output at
// out from as many lanes at y, cb0, cb1, cr0 and cr1. Block k stores 32 bytes
// at out+24k: its pixels and 8 bytes past them, which the next block or the
// caller rewrites. It reads nothing past the lanes and writes nothing at or
// past out+24*blocks+8.
//
//go:noescape
func convertRow420Kernel(out *uint8, y, cb0, cb1, cr0, cr1 *int32, fy int32, blocks int)

// convertRow420 finishes one output row of a 4:2:0 image: convertRow420Scalar,
// with the 8-pixel blocks whose stores fit inside the row done by
// convertRow420Kernel where the CPU has AVX2. The scalar loop finishes the
// tail, which always holds at least 3 pixels, so it rewrites the 8 bytes the
// last block's store writes past its pixels.
func convertRow420(out []uint8, y, cb0, cb1, cr0, cr1 []int32, fy int32) {
	n := len(out) / 3
	if blocks := (3*n - 8) / 24; haveAVX2 && blocks > 0 {
		y, cb0, cb1, cr0, cr1 = y[:n], cb0[:n], cb1[:n], cr0[:n], cr1[:n]
		convertRow420Kernel(&out[0], &y[0], &cb0[0], &cb1[0], &cr0[0], &cr1[0], fy, blocks)
		k := 8 * blocks
		out, y, cb0, cb1, cr0, cr1 = out[3*k:], y[k:], cb0[k:], cb1[k:], cr0[k:], cr1[k:]
	}
	convertRow420Scalar(out, y, cb0, cb1, cr0, cr1, fy)
}

// idctStoreKernel is idct8x8 followed by storeBlock at dst: it writes the 8
// rows of 8 int32s at dst+i*stride and nothing else, and only reads blk.
//
//go:noescape
func idctStoreKernel(blk *[64]int32, dst *int32, stride int)

// idctStore reconstructs a block with AC coefficients into a plane window:
// idct8x8 then storeBlock, in one idctStoreKernel call where the CPU has
// AVX2. The kernel has no DC-only row shortcut; the shortcut's dc<<2 is the
// butterfly's own output for a row whose AC is zero while |dc| < 2^18, and
// dequantClamp keeps every coefficient within ±2048. blk may be clobbered.
func idctStore(blk *[64]int32, dst []int32, stride int) {
	if haveAVX2 {
		_ = dst[7*stride+7]
		idctStoreKernel(blk, &dst[0], stride)
		return
	}
	idct8x8(blk)
	storeBlock(blk, dst, stride)
}
