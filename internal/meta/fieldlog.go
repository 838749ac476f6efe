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
// arena.
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

// SetUnlogged re-arms the barrier for slot. The collector calls it when
// processing the modified-fields buffer at each pause, and for every
// field of an object surviving its first collection.
func (t *FieldLogTable) SetUnlogged(slot mem.Address) { t.set(slot, LogUnlogged) }

// SetLogged forces the Logged state (used when clearing reclaimed
// memory's metadata).
func (t *FieldLogTable) SetLogged(slot mem.Address) { t.set(slot, LogLogged) }

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

// ClearRange forces Logged for every field in [start, end), used when an
// object's memory is reclaimed so reallocation starts from clean state.
// Logged is the all-zero encoding, so interior words (16 fields each)
// are plain atomic zero stores; only the partially covered boundary
// words need a masked CAS. This runs on every bump-span reset, which is
// why the per-field CAS loop it replaces was worth killing.
func (t *FieldLogTable) ClearRange(start, end mem.Address) {
	t.setRange(start, end, 0)
}

// unloggedWord is sixteen fields' worth of LogUnlogged.
const unloggedWord = 0x5555_5555

// SetUnloggedRange re-arms the barrier for every field in [start, end):
// what a SetUnlogged per field does, a word of sixteen fields at a
// time. The collector calls it on the reference slots of an object at
// its final address (promotion, evacuation), so interior words belong
// to that object alone and are single atomic stores; the boundary
// words are shared with neighbouring objects, whose fields another
// pause worker may be arming, and take a masked CAS that leaves every
// field outside the range — a Busy one included — as it was.
func (t *FieldLogTable) SetUnloggedRange(start, end mem.Address) {
	t.setRange(start, end, unloggedWord)
}

// setRange gives every field in [start, end) the state pattern holds
// for it (a word of one repeated 2-bit state).
func (t *FieldLogTable) setRange(start, end mem.Address, pattern uint32) {
	if start >= end {
		return
	}
	// The fields the per-field loop would visit, stepping by the word
	// size from start (which need not be aligned).
	f0 := uint64(start) >> mem.WordLog
	f1 := uint64(start+((end-start-1)/mem.WordSize)*mem.WordSize)>>mem.WordLog + 1
	w0, s0 := int(f0/16), uint(f0%16)*2
	w1, s1 := int(f1/16), uint(f1%16)*2
	if w0 == w1 {
		setMasked32(&t.words[w0], (^uint32(0)<<s0)&^(^uint32(0)<<s1), pattern)
		return
	}
	if s0 != 0 {
		setMasked32(&t.words[w0], ^uint32(0)<<s0, pattern)
		w0++
	}
	for w := w0; w < w1; w++ {
		atomic.StoreUint32(&t.words[w], pattern)
	}
	if s1 != 0 {
		setMasked32(&t.words[w1], ^(^uint32(0) << s1), pattern)
	}
}

// setMasked32 atomically replaces the masked bits of *w with those of v.
func setMasked32(w *uint32, mask, v uint32) {
	for {
		old := atomic.LoadUint32(w)
		new := old&^mask | v&mask
		if old == new || atomic.CompareAndSwapUint32(w, old, new) {
			return
		}
	}
}
