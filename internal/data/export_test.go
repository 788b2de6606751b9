package data

import "fmt"

// DamageStoredBlob damages sample i's stored blob at the maxDim cap behind
// the corpus index's back, for tests outside the package: one flipped byte in
// its middle, or with truncate the file cut off in its middle.
func (ds *ImageDataset) DamageStoredBlob(i, maxDim int, truncate bool) error {
	c := &ds.corpus
	c.mu.Lock()
	defer c.mu.Unlock()
	ref := c.ref(i, maxDim)
	if ref.n == 0 {
		return fmt.Errorf("sample %d is not in the corpus", i)
	}
	mid := ref.off + int64(ref.n)/2
	if truncate {
		return c.f.Truncate(mid)
	}
	b := []byte{0}
	if _, err := c.f.ReadAt(b, mid); err != nil {
		return err
	}
	b[0] ^= 0x10
	_, err := c.f.WriteAt(b, mid)
	return err
}
