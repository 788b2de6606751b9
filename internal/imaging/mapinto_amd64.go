package imaging

// mapGather maps 8*groups pixels, 24 bytes of p each, into the planes at
// dstR, dstG and dstB. It loads 32 bytes per group, so p must hold
// 24*groups+8 bytes.
//
//go:noescape
func mapGather(dstR, dstG, dstB *float32, p *uint8, lut *[3][256]float32, groups int)

// mapPixels is mapScalar with the pixels a 32-byte load can reach inside p
// done by mapGather, where the CPU has AVX2; the scalar loop finishes the
// tail.
func mapPixels(r, g, b []float32, p []uint8, lut *[3][256]float32) {
	g, b, p = g[:len(r)], b[:len(r)], p[:3*len(r)]
	if haveAVX2 && len(p) >= 32 {
		groups := (len(p) - 8) / 24
		mapGather(&r[0], &g[0], &b[0], &p[0], lut, groups)
		n := 8 * groups
		r, g, b, p = r[n:], g[n:], b[n:], p[3*n:]
	}
	mapScalar(r, g, b, p, lut)
}
