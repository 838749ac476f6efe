//go:build !amd64 || race

package mem

import "sync/atomic"

// storeRelease everywhere but race-free amd64 is the sequentially
// consistent store it replaced: on weakly ordered machines a plain
// store is not a release (arm64's atomic store is STLR, which is), and
// under the race detector a plain store against the collectors' atomic
// loads of the same word is a reported data race however benign the
// value.
func (a *Arena) storeRelease(w int, v uint64) { atomic.StoreUint64(&a.words[w], v) }
