//go:build linux

package imaging

import (
	"syscall"
	"testing"
)

// TestMapIntoNeverReadsPastPix ends Pix flush against a page with no access
// and maps it at every pixel count across several steps of the gather loop's
// bound, and at the two served sizes: a load one byte past Pix faults.
func TestMapIntoNeverReadsPastPix(t *testing.T) {
	page := syscall.Getpagesize()
	size := (3*256*256 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	lut := mapLUT(1)
	run := func(w, h int) {
		pix := mem[size-3*w*h : size : size]
		for i := range pix {
			pix[i] = byte(7*i + 1)
		}
		checkMapInto(t, &Image{W: w, H: h, Pix: pix}, lut)
	}
	for w := 1; w <= 136; w++ {
		run(w, 1)
	}
	run(224, 224)
	run(256, 256)
}
