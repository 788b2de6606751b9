//go:build !amd64

package imaging

import "testing"

// withoutAVX2 reports false: off amd64 every path is the definition.
func withoutAVX2(*testing.T) bool { return false }
