package immix

import (
	"math/bits"

	"lxr/internal/mem"
)

// LineMap says which lines of a block are available for reuse: one call
// fills the free-line bitmap (bit set = line free) of the block whose
// first global line is firstLine, so the allocator scans for spans
// word-at-a-time. LXR backs it with the reference-count table (a line is
// free when its sixteen 2-bit counts are all zero); tracing Immix backs
// it with line mark bits.
type LineMap interface {
	FreeLineBits(firstLine int, bm *[mem.LinesPerBlock / 32]uint32)
}

// Allocator is a thread-local Immix bump-pointer allocator. It allocates
// into a reserved block, recycles free line spans in partially free
// blocks (skipping the conservatively-unavailable first free line after
// a used line, §3.1), sends medium objects that do not fit the current
// span to a dynamic-overflow block, and zeroes memory immediately before
// handing it out.
type Allocator struct {
	BT *BlockTable
	// Lines makes the allocator prefer partially free blocks, the
	// Immix/LXR policy that maximises clean blocks for large allocation;
	// nil disables line recycling (strictly-copying plans).
	Lines LineMap
	// Kind tags acquired blocks (G1 region kind, semispace half, ...).
	Kind uint8
	// NoBudget lets the allocator exceed the heap budget (the physical
	// arena still bounds it); evacuation copy reserves use it so a
	// collection never fails while free blocks physically exist.
	NoBudget bool
	// OnSpan, when set, is invoked for every address span handed to the
	// bump pointer, after the span is zeroed. Plans use it to clear the
	// span's side metadata.
	OnSpan func(start, end mem.Address)

	cursor mem.Address
	limit  mem.Address
	block  int
	scan   int // next line in block to consider for recycling
	// lineBits caches the free-line bitmap of the current recycled
	// block, snapshotted at acquisition. The allocator holds the block
	// Reserved while it bumps through it, and lines only transition
	// used->free concurrently, so a stale snapshot can only under-report
	// free lines — conservative, never unsafe.
	lineBits [mem.LinesPerBlock / 32]uint32

	oCursor mem.Address // overflow block for medium objects
	oLimit  mem.Address
	oBlock  int

	// Statistics.
	Allocated      int64 // bytes allocated through this allocator
	SinceEpoch     int64 // bytes since last harvest (trigger accounting)
	BlocksClean    int64
	BlocksRecycled int64
}

// Alloc reserves size bytes (16-byte aligned, caller guarantees) and
// returns the zeroed start address. ok=false means the heap budget is
// exhausted and a collection is required.
func (al *Allocator) Alloc(size int) (mem.Address, bool) {
	if a := al.cursor; a+mem.Address(size) <= al.limit {
		al.cursor += mem.Address(size)
		al.Allocated += int64(size)
		al.SinceEpoch += int64(size)
		return a, true
	}
	return al.allocSlow(size)
}

func (al *Allocator) allocSlow(size int) (mem.Address, bool) {
	// Dynamic overflow: medium objects that do not fit the remaining
	// span go to the overflow block so the span's lines are not wasted.
	if size > mem.LineSize && al.limit-al.cursor > 0 {
		if a, ok := al.allocOverflow(size); ok {
			return a, true
		}
		return mem.Nil, false
	}
	for {
		if al.nextSpanInBlock() {
			if a := al.cursor; a+mem.Address(size) <= al.limit {
				al.cursor += mem.Address(size)
				al.Allocated += int64(size)
				al.SinceEpoch += int64(size)
				return a, true
			}
			continue // span too small for this object; try the next
		}
		if !al.acquireBlock() {
			return mem.Nil, false
		}
		if a := al.cursor; a+mem.Address(size) <= al.limit {
			al.cursor += mem.Address(size)
			al.Allocated += int64(size)
			al.SinceEpoch += int64(size)
			return a, true
		}
	}
}

func (al *Allocator) allocOverflow(size int) (mem.Address, bool) {
	if a := al.oCursor; a+mem.Address(size) <= al.oLimit {
		al.oCursor += mem.Address(size)
		al.Allocated += int64(size)
		al.SinceEpoch += int64(size)
		return a, true
	}
	idx, ok := al.acquireClean()
	if !ok {
		return mem.Nil, false
	}
	al.retireOverflow()
	al.prepareClean(idx)
	al.BT.SetFlag(idx, FlagYoung) // clean overflow blocks hold only young objects
	al.oBlock = idx
	al.oCursor = mem.BlockStart(idx)
	al.oLimit = al.oCursor + mem.BlockSize
	// Zero and clear metadata exactly like a bump span: stale contents
	// here would masquerade as live references. The block is freshly
	// acquired clean, hence still allocator-private: bulk memclr.
	al.BT.Arena.ZeroPrivate(al.oCursor, al.oLimit)
	if al.OnSpan != nil {
		al.OnSpan(al.oCursor, al.oLimit)
	}
	a := al.oCursor
	al.oCursor += mem.Address(size)
	al.Allocated += int64(size)
	al.SinceEpoch += int64(size)
	return a, true
}

// nextSpanInBlock advances the bump span to the next run of free lines
// in the current (recycled) block, scanning the cached free-line bitmap
// word-at-a-time. Following Immix, the first free line after a used
// line is treated as unavailable so that objects straddling into it are
// never clobbered.
func (al *Allocator) nextSpanInBlock() bool {
	if al.block == 0 || al.Lines == nil {
		return false
	}
	start, end, ok := nextSpan(&al.lineBits, al.scan)
	if !ok {
		al.scan = mem.LinesPerBlock
		return false
	}
	al.scan = end
	base := al.block * mem.LinesPerBlock
	al.setSpan(mem.LineStart(base+start), mem.LineStart(base+end), true)
	return true
}

// lineBitSet reports whether line l of the bitmap is free.
func lineBitSet(bm *[mem.LinesPerBlock / 32]uint32, l int) bool {
	return bm[l>>5]&(1<<uint(l&31)) != 0
}

// nextFreeLine returns the index of the first free line >= l, or
// LinesPerBlock. Each iteration consumes the remainder of a 32-line
// word with one TrailingZeros32 instead of up to 32 interface calls.
func nextFreeLine(bm *[mem.LinesPerBlock / 32]uint32, l int) int {
	for l < mem.LinesPerBlock {
		if w := bm[l>>5] >> uint(l&31); w != 0 {
			return l + bits.TrailingZeros32(w)
		}
		l = (l &^ 31) + 32
	}
	return mem.LinesPerBlock
}

// nextUsedLine returns the index of the first used line >= l, or
// LinesPerBlock, by scanning the inverted bitmap the same way.
func nextUsedLine(bm *[mem.LinesPerBlock / 32]uint32, l int) int {
	for l < mem.LinesPerBlock {
		if w := (^bm[l>>5]) >> uint(l&31); w != 0 {
			n := l + bits.TrailingZeros32(w)
			if n > mem.LinesPerBlock {
				n = mem.LinesPerBlock
			}
			return n
		}
		l = (l &^ 31) + 32
	}
	return mem.LinesPerBlock
}

// nextSpan finds the next bumpable span of free lines at or after scan
// in a block's free-line bitmap, applying the conservative straddle
// rule. It is the pure core of nextSpanInBlock, shared with ScanSpans
// and property-tested against the per-line reference scan.
func nextSpan(bm *[mem.LinesPerBlock / 32]uint32, scan int) (start, end int, ok bool) {
	l := scan
	for l < mem.LinesPerBlock {
		l = nextFreeLine(bm, l)
		if l >= mem.LinesPerBlock {
			break
		}
		if l > 0 {
			// Conservative straddle rule: skip the first free line
			// following a used line (or a previously returned span).
			l++
			if l >= mem.LinesPerBlock || !lineBitSet(bm, l) {
				continue
			}
		}
		start = l
		l = nextUsedLine(bm, l)
		return start, l, true
	}
	return 0, 0, false
}

func (al *Allocator) acquireBlock() bool {
	al.retireCurrent()
	if al.Lines != nil {
		// Iterative on purpose: the recycled list can hold a long run of
		// blocks whose only free lines are consumed by the conservative
		// straddle rule, and the allocation slow path must not deepen
		// the stack once per such block.
		for {
			idx, ok := al.BT.AcquireRecycled()
			if !ok {
				break
			}
			al.BT.SetKind(idx, al.Kind)
			al.BT.NoteDirty(idx)
			al.BlocksRecycled++
			al.block = idx
			al.scan = 0
			al.Lines.FreeLineBits(idx*mem.LinesPerBlock, &al.lineBits)
			if al.nextSpanInBlock() {
				return true
			}
			// No bumpable span survived the conservative rule; retire
			// the block and take the next recycled one.
			al.retireCurrent()
		}
	}
	idx, ok := al.acquireClean()
	if !ok {
		return false
	}
	al.prepareClean(idx)
	al.BT.SetFlag(idx, FlagYoung)
	al.block = idx
	al.scan = mem.LinesPerBlock // clean block: single whole-block span
	al.setSpan(mem.BlockStart(idx), mem.BlockStart(idx)+mem.BlockSize, false)
	return true
}

func (al *Allocator) acquireClean() (int, bool) {
	if al.NoBudget {
		return al.BT.AcquireCleanNoBudget()
	}
	return al.BT.AcquireClean()
}

func (al *Allocator) prepareClean(idx int) {
	al.BT.SetKind(idx, al.Kind)
	al.BT.NoteDirty(idx)
	al.BlocksClean++
}

func (al *Allocator) setSpan(start, end mem.Address, recycled bool) {
	al.cursor = start
	al.limit = end
	// Zero immediately before allocating into the span (§3.1). A clean
	// block is allocator-private until its first object is published, so
	// it takes the bulk memclr path; recycled line spans sit inside
	// published blocks and must keep the word-atomic path (stale-ref
	// forwarding probes can land inside them: DESIGN.md, "Private-block
	// bulk zeroing").
	if recycled {
		al.BT.Arena.ZeroRange(start, end)
	} else {
		al.BT.Arena.ZeroPrivate(start, end)
	}
	if al.OnSpan != nil {
		al.OnSpan(start, end)
	}
}

func (al *Allocator) retireCurrent() {
	if al.block != 0 {
		al.BT.Retire(al.block)
		al.block = 0
	}
	al.cursor, al.limit = 0, 0
}

func (al *Allocator) retireOverflow() {
	if al.oBlock != 0 {
		al.BT.Retire(al.oBlock)
		al.oBlock = 0
	}
	al.oCursor, al.oLimit = 0, 0
}

// Flush retires the allocator's blocks. Plans call it at collection
// pauses, because the lines backing the bump span may be reclaimed or
// the block's flags rewritten.
func (al *Allocator) Flush() {
	al.retireCurrent()
	al.retireOverflow()
	al.scan = 0
}

// HarvestSinceEpoch returns and clears the bytes-allocated-since-last-
// harvest counter used by collection triggers.
func (al *Allocator) HarvestSinceEpoch() int64 {
	v := al.SinceEpoch
	al.SinceEpoch = 0
	return v
}
