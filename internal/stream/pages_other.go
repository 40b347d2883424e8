//go:build !unix

package stream

// pagesOffHeap reports that mapPage's pages lie on the Go heap.
const pagesOffHeap = false

// mapPage allocates a zeroed page on the Go heap, where there is no mmap to
// map one outside it; the store works the same and the collector keeps its
// headroom over it.
func mapPage(size int) []byte { return make([]byte, size) }

// unmapPage leaves a heap page to the garbage collector.
func unmapPage([]byte) {}
