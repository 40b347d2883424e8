//go:build unix

package stream

import "syscall"

// pagesOffHeap reports that mapPage's pages lie outside the Go heap.
const pagesOffHeap = true

// mapPage maps size bytes of zeroed memory outside the Go heap: an anonymous
// private mapping, which the garbage collector never scans or paces by.
func mapPage(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("stream: mapping a timeline page: " + err.Error())
	}
	return b
}

// unmapPage returns a page from mapPage to the system.
func unmapPage(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("stream: unmapping a timeline page: " + err.Error())
	}
}
