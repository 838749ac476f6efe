//go:build amd64 && !race

package meta

// armWord on amd64 is a plain aligned MOVL of sixteen Unlogged fields.
// Its callers run only in a pause (see ArmWord), where every writer of
// the table stores this same constant: an aligned 4-byte store is
// single-copy atomic, so racing pause workers converge on it, and the
// rendezvous that ends the pause orders it before any mutator's load.
// What is given up against atomic.StoreUint32 (XCHGL) is the fence and
// the locked read-modify-write, which stalled the drain behind every
// earlier miss. CI greps the compiled ArmWord and ArmWords for a LOCK
// prefix or a memory XCHG.
func (t *FieldLogTable) armWord(w int) { t.words[w] = unloggedWord }

// storeCover is a plain MOVL for RCTable.Cover, whose entries have one
// writer at a time; CI greps the compiled Cover as it does ArmWord.
func (t *RCTable) storeCover(l int, v uint32) { t.cover[l] = v }
