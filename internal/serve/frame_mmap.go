//go:build unix && !race

package serve

import "syscall"

// mapFrameMem maps n bytes of zeroed anonymous private memory: pages the
// garbage collector neither scans nor counts. Today nothing but this process
// can see them; a descriptor-backed mapping a co-located client could share
// would be made here.
func mapFrameMem(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func unmapFrameMem(b []byte) error { return syscall.Munmap(b) }
