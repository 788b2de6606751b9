//go:build linux

package imaging

import (
	"fmt"
	"math/rand/v2"
	"syscall"
	"testing"
)

// TestMapIntoNeverReadsPastPix is the harness's guard-page test: at every
// guard size in its row, each of a kernel's buffers in turn ends flush
// against a page with no access, so a load or store one byte past it
// faults.
func TestMapIntoNeverReadsPastPix(t *testing.T) {
	page := syscall.Getpagesize()
	for i := range kernels {
		k := &kernels[i]
		t.Run(k.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(1, uint64(i)))
			calls := make([]kernelInput, len(k.guard))
			most := 0
			for j, n := range k.guard {
				calls[j] = k.gen(r, n, nil)
				most = max(most, calls[j].outLen)
				for _, b := range calls[j].in {
					most = max(most, len(b))
				}
			}
			size := (most + page - 1) / page * page
			mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				t.Fatal(err)
			}
			defer syscall.Munmap(mem)
			if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
				t.Fatal(err)
			}
			for j, c := range calls {
				for flush, name := range k.bufs {
					in := append([][]byte(nil), c.in...)
					out := make([]byte, c.outLen)
					if flush < len(in) {
						in[flush] = mem[size-len(in[flush]) : size : size]
						copy(in[flush], c.in[flush])
					} else {
						out = mem[size-c.outLen : size : size]
					}
					k.check(t, fmt.Sprintf("size %d, %s flush against the guard page", k.guard[j], name), c, in, out)
				}
			}
		})
	}
}
