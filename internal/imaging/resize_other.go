//go:build !amd64

package imaging

// vertical2 is vertical2SWAR where no kernel exists.
func vertical2(orow, r0, r1 []uint8, t0, t1 uint64) {
	vertical2SWAR(orow, r0, r1, t0, t1)
}
