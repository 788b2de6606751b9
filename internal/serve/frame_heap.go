//go:build !unix || race

package serve

// Frame memory from the Go heap, behind the same free list: where there is
// no mmap, and under the race detector, which does not see accesses to
// memory outside the Go heap — `go test -race` is what checks that nobody
// writes a frame once it is made, so there the frames must be where it looks.
func mapFrameMem(n int) ([]byte, error) { return make([]byte, n), nil }

func unmapFrameMem([]byte) error { return nil }
