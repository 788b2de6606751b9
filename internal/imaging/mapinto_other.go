//go:build !amd64

package imaging

// mapPixels is mapScalar where no gather kernel exists.
func mapPixels(r, g, b []float32, p []uint8, lut *[3][256]float32) {
	mapScalar(r, g, b, p, lut)
}
