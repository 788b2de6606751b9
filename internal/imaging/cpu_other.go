//go:build !amd64

package imaging

// haveAVX2 is false off amd64: there is no kernel to select.
const haveAVX2 = false
