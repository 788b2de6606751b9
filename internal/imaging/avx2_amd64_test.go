package imaging

import "testing"

// withoutAVX2 runs the rest of t on the scalar and SWAR definitions: it
// clears haveAVX2 until t ends and reports true. Where the CPU has no AVX2
// every path is already the definition, and it changes nothing and reports
// false. No imaging test runs in parallel, so flipping the variable is safe.
func withoutAVX2(t *testing.T) bool {
	if !haveAVX2 {
		return false
	}
	haveAVX2 = false
	t.Cleanup(func() { haveAVX2 = true })
	return true
}
