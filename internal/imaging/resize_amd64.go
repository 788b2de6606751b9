package imaging

// vertical2Kernel computes 32*blocks bytes of vertical2's output at orow
// from as many bytes at r0 and r1; it reads and writes nothing past them.
//
//go:noescape
func vertical2Kernel(orow, r0, r1 *uint8, t0, t1 uint64, blocks int)

// vertical2 computes one output row from two source rows and their taps:
// vertical2SWAR, with the 32-byte blocks that fit inside the row done by
// vertical2Kernel where the CPU has AVX2. The SWAR loop finishes the tail.
func vertical2(orow, r0, r1 []uint8, t0, t1 uint64) {
	n := len(orow)
	r0, r1 = r0[:n], r1[:n]
	if haveAVX2 && n >= 32 {
		blocks := n / 32
		vertical2Kernel(&orow[0], &r0[0], &r1[0], t0, t1, blocks)
		n = 32 * blocks
		orow, r0, r1 = orow[n:], r0[n:], r1[n:]
	}
	vertical2SWAR(orow, r0, r1, t0, t1)
}

// horizontal2Kernel computes 32*blocks bytes of horizontal2's output at orow
// from the first 32*blocks entries of off, t0 and t1. It reads row only at
// the 4 bytes from each off entry, and nothing past the entries or orow.
//
//go:noescape
func horizontal2Kernel(orow, row *uint8, off, t0, t1 *int32, blocks int)

// horizontal2 computes one output row of a table with at most two taps per
// window from its expansion p: horizontal2Scalar, with the 32-byte blocks
// that fit inside the row done by horizontal2Kernel where the CPU has AVX2.
// The scalar loop finishes the tail.
func horizontal2(orow, row []uint8, p *tapPairs) {
	n := len(orow)
	off, t0, t1 := p.off[:n], p.t0[:n], p.t1[:n]
	if haveAVX2 && n >= 32 {
		blocks := n / 32
		horizontal2Kernel(&orow[0], &row[0], &off[0], &t0[0], &t1[0], blocks)
		n = 32 * blocks
		orow, off, t0, t1 = orow[n:], off[n:], t0[n:], t1[n:]
	}
	horizontal2Scalar(orow, row, off, t0, t1)
}
