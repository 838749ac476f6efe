//go:build !amd64 || race

package meta

import "sync/atomic"

// armWord everywhere but race-free amd64 is atomic.StoreUint32: the
// single-copy-atomicity argument for the plain store is made for amd64
// alone, and under the race detector two pause workers' plain stores to
// one word are a reported data race however equal the values. The split
// is mem's storeRelease's.
func (t *FieldLogTable) armWord(w int) { atomic.StoreUint32(&t.words[w], unloggedWord) }

// storeCover is atomic for armWord's reasons (see RCTable.Cover).
func (t *RCTable) storeCover(l int, v uint32) { atomic.StoreUint32(&t.cover[l], v) }
