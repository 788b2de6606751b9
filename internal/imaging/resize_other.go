//go:build !amd64

package imaging

// vertical2 is vertical2SWAR where no kernel exists.
func vertical2(orow, r0, r1 []uint8, t0, t1 uint64) {
	vertical2SWAR(orow, r0, r1, t0, t1)
}

// horizontal2 is horizontal2Scalar where no kernel exists.
func horizontal2(orow, row []uint8, p *tapPairs) {
	horizontal2Scalar(orow, row, p.off, p.t0, p.t1)
}
