//go:build !amd64

package imaging

// convertRow420 is convertRow420Scalar where no kernel exists.
func convertRow420(out []uint8, y, cb0, cb1, cr0, cr1 []int32, fy int32) {
	convertRow420Scalar(out, y, cb0, cb1, cr0, cr1, fy)
}

// idctStore is idct8x8 then storeBlock where no kernel exists. blk is
// clobbered.
func idctStore(blk *[64]int32, dst []int32, stride int) {
	idct8x8(blk)
	storeBlock(blk, dst, stride)
}
