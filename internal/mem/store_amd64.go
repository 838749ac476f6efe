//go:build amd64 && !race

package mem

// storeRelease on amd64 is a plain aligned 8-byte MOVQ. x86-TSO never
// reorders a store with an earlier load or an earlier store, which is
// all a release store asks, and an aligned word store is single-copy
// atomic in hardware, so a racing atomic load sees the old word or the
// new one. What is given up against atomic.StoreUint64 (XCHGQ) is the
// trailing full fence: a *later* load by this thread may be satisfied
// while the store still sits in the store buffer. The Go compiler keeps
// stores in program order (they are threaded through one memory chain)
// and CI greps the compiled WriteRef bodies for XCHGQ to pin the
// instruction. See Arena.StoreRelease for who may call this.
func (a *Arena) storeRelease(w int, v uint64) { a.words[w] = v }
