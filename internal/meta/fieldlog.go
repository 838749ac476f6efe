package meta

import (
	"sync/atomic"

	"lxr/internal/mem"
)

// Field log states for the field-logging write barrier (Fig. 3 of the
// paper; Blackburn ISMM'19). Two bits per 8-byte field.
//
// Memory is zeroed before allocation, so new objects' fields start in
// the Logged state and the barrier ignores mutations to them — this is
// what implements the implicitly-dead optimisation in the barrier
// (§3.4). When a young object survives its first collection, the
// collector flips its fields to Unlogged; thereafter the first store to
// each field takes the slow path once per epoch.
const (
	LogLogged   uint32 = 0 // already captured this epoch (or object is new)
	LogUnlogged uint32 = 1 // first store must take the slow path
	LogBusy     uint32 = 2 // another thread is capturing the old value
)

// FieldLogTable holds the 2-bit log state for every 8-byte field in the
// arena: a thirty-second of the heap (512 KB on a 16 MB heap), twice the
// RC table. Mutators log a field Unlogged → Busy → Logged by CAS
// (TryBeginLog, FinishLog), since two of them may race on one word. A
// span handed to an allocator is reset to Logged (ClearRange). LXR's
// pauses re-arm the barrier by the word with plain stores (ArmWord,
// ArmWords); G1's and Immix+WB's re-arm field by field (SetUnlogged).
type FieldLogTable struct {
	words []uint32
}

// NewFieldLogTable creates a field-log table covering the arena.
func NewFieldLogTable(a *mem.Arena) *FieldLogTable {
	nFields := a.Size() / mem.WordSize
	return &FieldLogTable{words: make([]uint32, nFields/16)}
}

func flIndex(slot mem.Address) (int, uint) {
	f := uint64(slot) >> mem.WordLog
	return int(f / 16), uint(f%16) * 2
}

// Get returns the log state of the field at slot.
func (t *FieldLogTable) Get(slot mem.Address) uint32 {
	w, s := flIndex(slot)
	return (atomic.LoadUint32(&t.words[w]) >> s) & 3
}

// TryBeginLog transitions slot from Unlogged to Busy, returning true if
// this thread won the race and must capture the old value. The paper's
// attemptToLog(): losers observing Busy must spin until the winner
// publishes Logged, guaranteeing the to-be-overwritten value was
// captured before any new value is stored.
func (t *FieldLogTable) TryBeginLog(slot mem.Address) bool {
	w, s := flIndex(slot)
	for {
		old := atomic.LoadUint32(&t.words[w])
		if (old>>s)&3 != LogUnlogged {
			return false
		}
		new := old&^(3<<s) | LogBusy<<s
		if atomic.CompareAndSwapUint32(&t.words[w], old, new) {
			return true
		}
	}
}

// FinishLog publishes the Logged state after the old value was captured.
func (t *FieldLogTable) FinishLog(slot mem.Address) { t.set(slot, LogLogged) }

// SetUnlogged re-arms the barrier for slot, one field at a time with a
// CAS. G1 and Immix+WB call it; LXR's pauses arm by the word (ArmWord).
func (t *FieldLogTable) SetUnlogged(slot mem.Address) { t.set(slot, LogUnlogged) }

func (t *FieldLogTable) set(slot mem.Address, v uint32) {
	w, s := flIndex(slot)
	for {
		old := atomic.LoadUint32(&t.words[w])
		new := old&^(3<<s) | v<<s
		if old == new || atomic.CompareAndSwapUint32(&t.words[w], old, new) {
			return
		}
	}
}

// ClearRange forces Logged, the all-zero state, for every field in
// [start, end): every span an allocator is handed, so new objects start
// Logged (clearPairs).
func (t *FieldLogTable) ClearRange(start, end mem.Address) {
	clearPairs(t.words, start, end, mem.WordLog)
}

// unloggedWord is sixteen fields' worth of LogUnlogged.
const unloggedWord = 0x5555_5555

// logWordLog is log2 of the heap bytes one table word covers: sixteen
// 8-byte fields, 128 bytes, half a line.
const logWordLog = mem.WordLog + 4

// ArmWord re-arms the barrier for slot by over-arming: one plain store
// (armWord) makes all sixteen fields of the table word holding slot
// Unlogged. Stopped world only, and only where every field the word
// reaches may be left Unlogged: LXR's increment drain and promotion,
// which answer for the four conditions in DESIGN.md, "Re-arming by the
// word" — racing stores converge, spilled-over fields are inert,
// over-armed words never reach a new object, and every field that must
// be armed is.
func (t *FieldLogTable) ArmWord(slot mem.Address) { t.armWord(int(slot >> logWordLog)) }

// ArmWords over-arms every table word [start, end) overlaps: a promoted
// object's reference slots. See ArmWord.
func (t *FieldLogTable) ArmWords(start, end mem.Address) {
	if start >= end {
		return
	}
	for w, last := int(start>>logWordLog), int((end-1)>>logWordLog); w <= last; w++ {
		t.armWord(w)
	}
}
