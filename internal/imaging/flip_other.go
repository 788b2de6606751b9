//go:build !amd64

package imaging

// flipRow is flipScalar where no kernel exists.
func flipRow(dst, src []uint8) {
	flipScalar(dst, src)
}
