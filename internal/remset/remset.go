// Package remset implements LXR's RC remembered set (§3.3.2): records
// of the locations of references into the evacuation set, each
// tagged with the reuse counter of the source line so that stale entries
// (whose containing line has been reclaimed and reallocated since the
// entry was created) can be discarded at evacuation time.
package remset

import (
	"sync"

	"lxr/internal/mem"
	"lxr/internal/meta"
)

// Entry records one incoming reference: the address of the slot holding
// it and the reuse count of the slot's line when the entry was created.
type Entry struct {
	Slot mem.Address
	Tag  uint32
}

// Table is the remembered set: a single whole-heap set, the paper's
// default configuration (§3.3.2).
type Table struct {
	reuse   *meta.LineCounters
	mu      sync.Mutex
	entries []Entry
}

// NewTable creates a remembered set. reuse supplies per-line reuse
// counters.
func NewTable(reuse *meta.LineCounters) *Table {
	return &Table{reuse: reuse}
}

// Record notes that slot holds a reference into the evacuation set. The
// entry is tagged with the current reuse count of the slot's line.
func (t *Table) Record(slot mem.Address) {
	e := Entry{Slot: slot, Tag: t.reuse.GetAddr(slot)}
	t.mu.Lock()
	t.entries = append(t.entries, e)
	t.mu.Unlock()
}

// TakeAll removes and returns every entry.
func (t *Table) TakeAll() []Entry {
	t.mu.Lock()
	e := t.entries
	t.entries = nil
	t.mu.Unlock()
	return e
}

// Valid reports whether an entry is still trustworthy: the slot's line
// must not have been reused since the entry was created. Stale entries
// could point at non-pointer data, so they are discarded (§3.3.2).
func (t *Table) Valid(e Entry) bool {
	return t.reuse.GetAddr(e.Slot) == e.Tag
}

// Len returns the entry count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
