// Package obj defines the object model of the simulated runtime.
//
// Every object occupies a 16-byte (two-word) header followed by its
// reference slots (8 bytes each) and then raw payload. Objects are
// 16-byte aligned, matching the allocation granule of the RC table.
//
// Header layout:
//
//	word 0: [0:32) size in bytes (including header)
//	        [32:48) number of reference slots
//	        [48:56) flags (large object, ...)
//	        [56:64) application type id
//	word 1: forwarding word — 0 when not forwarded; during copying it
//	        holds the new address tagged with a 2-bit state, allowing
//	        concurrent collectors to race on evacuation with CAS.
package obj

import (
	"fmt"

	"lxr/internal/mem"
)

// Ref is a reference to an object: the address of its header.
type Ref = mem.Address

// Header geometry.
const (
	// HeaderWords is the number of words in an object header.
	HeaderWords = 2
	// HeaderBytes is the header size in bytes.
	HeaderBytes = HeaderWords * mem.WordSize
	// MinSize is the minimum object size (a bare header).
	MinSize = mem.Granule
	// MaxRefs is the maximum number of reference slots.
	MaxRefs = 1<<16 - 1
	// MaxSize is the maximum encodable object size.
	MaxSize = 1<<32 - 1
	// LargeThreshold is the size above which objects go to the large
	// object space: half a block (16 KB), per Immix and LXR (§3.1).
	LargeThreshold = mem.BlockSize / 2
	// LineThreshold is the size above which an object cannot fit in a
	// line; such "medium" objects may trigger Immix dynamic overflow
	// allocation.
	LineThreshold = mem.LineSize
)

// Flags stored in header word 0.
const (
	FlagLarge uint64 = 1 << 48
)

// Forwarding word states (low 2 bits of header word 1).
const (
	fwdMask      uint64 = 3
	FwdNone      uint64 = 0 // not forwarded
	FwdBusy      uint64 = 1 // being copied by some thread
	FwdForwarded uint64 = 3 // copied; bits [2:] hold the new address << 2
)

// Layout describes an object's shape independent of any heap.
type Layout struct {
	NumRefs int // number of reference slots
	Size    int // total size in bytes, including header
	TypeID  uint8
	Large   bool
}

// SizeFor returns the aligned total size (bytes) of an object with the
// given reference slot count and payload bytes.
func SizeFor(numRefs, payloadBytes int) int {
	sz := HeaderBytes + numRefs*mem.WordSize + payloadBytes
	return int(mem.Address(sz).AlignUp(mem.Granule))
}

// Validate checks layout bounds.
func (l Layout) Validate() error {
	if l.NumRefs < 0 || l.NumRefs > MaxRefs {
		return fmt.Errorf("obj: invalid ref count %d", l.NumRefs)
	}
	if l.Size < MinSize || int64(l.Size) > MaxSize {
		return fmt.Errorf("obj: invalid size %d", l.Size)
	}
	if l.Size < HeaderBytes+l.NumRefs*mem.WordSize {
		return fmt.Errorf("obj: size %d too small for %d refs", l.Size, l.NumRefs)
	}
	return nil
}

// Model wraps an arena with object accessors. It is a value type wrapper
// so collectors and mutators share one way of decoding objects.
type Model struct {
	A *mem.Arena
}

// WriteHeader initialises the header of a new object at ref: an object
// the allocating thread alone can name until it stores the reference
// somewhere, and that store is ordered after these two (release stores;
// DESIGN.md, "Stores that need no fence"). Collectors copying an object
// use CopyTo, not this.
func (m Model) WriteHeader(ref Ref, l Layout) {
	w0 := uint64(uint32(l.Size)) | uint64(l.NumRefs)<<32 | uint64(l.TypeID)<<56
	if l.Large {
		w0 |= FlagLarge
	}
	m.A.StoreRelease(ref, w0)
	m.A.StoreRelease(ref+mem.WordSize, 0)
}

// Size returns the total size in bytes of the object at ref.
func (m Model) Size(ref Ref) int {
	return int(uint32(m.A.Load(ref)))
}

// NumRefs returns the number of reference slots of the object at ref.
func (m Model) NumRefs(ref Ref) int {
	return int(uint16(m.A.Load(ref) >> 32))
}

// IsLarge reports whether the object was allocated in the large object
// space.
func (m Model) IsLarge(ref Ref) bool {
	return m.A.Load(ref)&FlagLarge != 0
}

// SlotAddr returns the address of reference slot i of the object at ref.
func (m Model) SlotAddr(ref Ref, i int) mem.Address {
	return ref + HeaderBytes + mem.Address(i)*mem.WordSize
}

// LoadSlot reads reference slot i.
func (m Model) LoadSlot(ref Ref, i int) Ref {
	return m.A.LoadRef(m.SlotAddr(ref, i))
}

// StoreSlot writes reference slot i without any barrier. Collectors use
// it when fixing references; mutators must go through their plan.
func (m Model) StoreSlot(ref Ref, i int, v Ref) {
	m.A.StoreRef(m.SlotAddr(ref, i), v)
}

// PayloadAddr returns the address of the first payload byte.
func (m Model) PayloadAddr(ref Ref) mem.Address {
	return ref + HeaderBytes + mem.Address(m.NumRefs(ref))*mem.WordSize
}

// EachSlot invokes f with (slotIndex, slotAddr, value) for every
// reference slot of the object at ref. It is the object-scanning
// primitive used by tracers, increment processing and recursive
// decrements.
func (m Model) EachSlot(ref Ref, f func(i int, slot mem.Address, v Ref)) {
	n := m.NumRefs(ref)
	slot := ref + HeaderBytes
	for i := 0; i < n; i++ {
		f(i, slot, m.A.LoadRef(slot))
		slot += mem.WordSize
	}
}

// --- Forwarding -----------------------------------------------------------

// ForwardingWord returns the raw forwarding word of ref.
func (m Model) ForwardingWord(ref Ref) uint64 {
	return m.A.Load(ref + mem.WordSize)
}

// IsForwarded reports whether ref has been evacuated.
func (m Model) IsForwarded(ref Ref) bool {
	return m.ForwardingWord(ref)&fwdMask == FwdForwarded
}

// ForwardingPointer returns the evacuated copy of ref. Only valid when
// IsForwarded(ref) is true.
func (m Model) ForwardingPointer(ref Ref) Ref {
	return Ref(m.ForwardingWord(ref) >> 2)
}

// TryClaimForwarding attempts to claim the right to copy ref, CASing the
// forwarding word from FwdNone to FwdBusy. It returns true when the
// caller won and must copy; on false the caller should call
// SpinForwarded to obtain the final address installed by the winner.
func (m Model) TryClaimForwarding(ref Ref) bool {
	return m.A.CAS(ref+mem.WordSize, FwdNone, FwdBusy)
}

// InstallForwarding publishes the new copy's address, completing a claim
// made with TryClaimForwarding.
func (m Model) InstallForwarding(ref, newRef Ref) {
	m.A.Store(ref+mem.WordSize, uint64(newRef)<<2|FwdForwarded)
}

// AbandonForwarding releases a claim without copying (e.g. copy-reserve
// exhausted); the object stays in place.
func (m Model) AbandonForwarding(ref Ref) {
	m.A.Store(ref+mem.WordSize, FwdNone)
}

// SpinForwarded waits until the forwarding word of ref leaves the busy
// state and returns the forwarding pointer, or ref itself if forwarding
// was abandoned.
func (m Model) SpinForwarded(ref Ref) Ref {
	for {
		w := m.ForwardingWord(ref)
		switch w & fwdMask {
		case FwdForwarded:
			return Ref(w >> 2)
		case FwdNone:
			return ref
		}
		// busy: another thread is copying; spin.
	}
}

// Resolve returns the current address of ref, following a forwarding
// pointer if one is installed.
func (m Model) Resolve(ref Ref) Ref {
	if ref.IsNil() {
		return ref
	}
	if w := m.ForwardingWord(ref); w&fwdMask == FwdForwarded {
		return Ref(w >> 2)
	}
	return ref
}

// CopyTo copies the object at ref to dst (which must have Size(ref)
// bytes available), clearing the copy's forwarding word.
func (m Model) CopyTo(ref, dst Ref) {
	m.A.Copy(dst, ref, m.Size(ref))
	m.A.Store(dst+mem.WordSize, 0)
}
