//go:build amd64 || arm64

package mem

import "unsafe"

// prefetch asks the processor to pull the cache line holding *p towards
// the core (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64). It reads and
// writes nothing the program can observe.
//
//go:noescape
func prefetch(p unsafe.Pointer)
