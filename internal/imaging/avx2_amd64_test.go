package imaging

import "testing"

// withoutAVX2 runs the rest of t on the scalar and SWAR definitions: it
// clears haveAVX2 until t ends and reports true. Where the CPU has no AVX2
// every path is already the definition, and it changes nothing and reports
// false. No imaging test runs in parallel, so flipping the variable is safe.
// A coefficient table built meanwhile has no expansion for horizontal2, so
// the cache is emptied when t ends: no later test resizes through one.
func withoutAVX2(t *testing.T) bool {
	if !haveAVX2 {
		return false
	}
	haveAVX2 = false
	t.Cleanup(func() {
		haveAVX2 = true
		coeffCache.mu.Lock()
		clear(coeffCache.m)
		coeffCache.ll.Init()
		coeffCache.mu.Unlock()
	})
	return true
}
