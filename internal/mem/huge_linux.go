//go:build linux

package mem

import (
	"syscall"
	"unsafe"
)

// newWords returns n zeroed words. Once they span a 2 MB huge page, they
// start on a 2 MB boundary of a padded Go slice and are advised
// MADV_HUGEPAGE before the heap stores to them (DESIGN.md, "The arena
// in huge pages"). Failed advice, as on a kernel without THP, leaves the
// arena on small pages, so its error is dropped.
func newWords(n int) []uint64 {
	const huge = 2 << 20
	if n*WordSize < huge {
		return make([]uint64, n)
	}
	buf := make([]uint64, n+huge/WordSize)
	off := int(-uintptr(unsafe.Pointer(&buf[0]))&(huge-1)) / WordSize
	words := buf[off : off+n : off+n]
	_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n*WordSize), syscall.MADV_HUGEPAGE)
	return words
}
