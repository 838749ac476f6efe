//go:build !linux

package mem

// newWords returns n zeroed words; only Linux asks for huge pages.
func newWords(n int) []uint64 { return make([]uint64, n) }
