//go:build !amd64 && !arm64

package mem

import "unsafe"

// prefetch is a no-op where no stub exists: the hint is an optimisation
// only, and dropping it changes no result.
func prefetch(unsafe.Pointer) {}
