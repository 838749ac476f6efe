// Package meta implements the side metadata tables LXR keeps off to the
// side of the heap: the 2-bit reference-count table with its per-line
// cover entries, the unlogged bits used by the field-logging write
// barrier, SATB mark bits, and the per-line reuse counters G1 uses to
// validate remembered-set entries.
//
// All tables are addressed by arena geometry (granule, word, or line
// index) so that metadata for an object is reachable from its address
// with simple arithmetic, exactly as the paper requires (§3.2.1).
package meta

import (
	"sync/atomic"

	"lxr/internal/mem"
)

// RC count encoding: 2 bits per 16-byte granule.
const (
	// RCBits is the number of bits per reference count.
	RCBits = 2
	// RCMax is the "stuck" value: counts that reach RCMax stop moving
	// and the object is handed over to the SATB trace for reclamation.
	RCMax = (1 << RCBits) - 1 // 3

	countsPerWord = 32 / RCBits // 16 counts per uint32
)

// RCTable holds one 2-bit reference count per granule, a line's worth
// in one uint32, and per line a cover entry: non-zero while a counted
// object starting on an earlier line reaches into it. A line is free
// when both are zero: two loads, the property the line allocator scans.
type RCTable struct {
	words []uint32
	cover []uint32 // one per line, parallel to words
}

// NewRCTable creates an RC table covering the whole arena.
func NewRCTable(a *mem.Arena) *RCTable {
	n := a.Size() / mem.Granule / countsPerWord
	return &RCTable{words: make([]uint32, n), cover: make([]uint32, n)}
}

func rcIndex(addr mem.Address) (word int, shift uint) {
	g := addr.Granule()
	return g / countsPerWord, uint(g%countsPerWord) * RCBits
}

// Get returns the reference count recorded for the granule containing addr.
func (t *RCTable) Get(addr mem.Address) uint32 {
	w, s := rcIndex(addr)
	return (atomic.LoadUint32(&t.words[w]) >> s) & RCMax
}

// Inc atomically increments the count for addr, saturating at RCMax
// ("stuck"). It returns the value before the increment.
func (t *RCTable) Inc(addr mem.Address) uint32 {
	w, s := rcIndex(addr)
	for {
		old := atomic.LoadUint32(&t.words[w])
		c := (old >> s) & RCMax
		if c == RCMax {
			return c // stuck: no further increments
		}
		if atomic.CompareAndSwapUint32(&t.words[w], old, old+(1<<s)) {
			return c
		}
	}
}

// Dec atomically decrements the count for addr. Stuck counts (RCMax) and
// already-zero counts are left unchanged. It returns the value before the
// decrement.
func (t *RCTable) Dec(addr mem.Address) uint32 {
	w, s := rcIndex(addr)
	for {
		old := atomic.LoadUint32(&t.words[w])
		c := (old >> s) & RCMax
		if c == RCMax || c == 0 {
			return c // stuck or already dead
		}
		if atomic.CompareAndSwapUint32(&t.words[w], old, old-(1<<s)) {
			return c
		}
	}
}

// Set stores an exact count for addr (clearing a dead object's count).
func (t *RCTable) Set(addr mem.Address, v uint32) {
	w, s := rcIndex(addr)
	for {
		old := atomic.LoadUint32(&t.words[w])
		new := (old &^ (RCMax << s)) | (v << s)
		if atomic.CompareAndSwapUint32(&t.words[w], old, new) {
			return
		}
	}
}

// LineWord returns the raw uint32 holding all counts for global line idx.
// A zero value means no object starts on the line.
func (t *RCTable) LineWord(idx int) uint32 {
	return atomic.LoadUint32(&t.words[idx])
}

// Covered reports whether global line idx has its cover entry set.
func (t *RCTable) Covered(idx int) bool { return atomic.LoadUint32(&t.cover[idx]) != 0 }

// Cover stores v in the cover entry of every line the size bytes at
// addr reach past their first: 1 when the object is promoted, in a
// pause, 0 when it dies. Only the object holding a line's first byte
// reaches into it from an earlier line, and a line is allocated over
// only once its entry reads 0, so an entry has one writer at a time and
// storeCover is a plain store on race-free amd64, as armWord is.
func (t *RCTable) Cover(addr mem.Address, size int, v uint32) {
	hi := (addr + mem.Address(size) - 1).Line() + 1
	if end := (addr.Block() + 1) * mem.LinesPerBlock; hi > end {
		hi = end // objects never span blocks, even with a clobbered header
	}
	for l := addr.Line() + 1; l < hi; l++ {
		t.storeCover(l, v)
	}
}

// ClearRange zeroes the counts of every granule in [start, end). This
// is the span-reset path of every bump allocation span, so it goes a
// word at a time (clearPairs) rather than up to 2048 CAS loops a block.
func (t *RCTable) ClearRange(start, end mem.Address) {
	clearPairs(t.words, start, end, mem.GranuleLog)
}

// clearPairs zeroes the 2-bit entries of ws — sixteen to a word, one per
// 1<<unitLog bytes — that a per-unit loop over [start, end) would visit,
// stepping by the unit from start (which need not be aligned). Interior
// words are single atomic stores; only the partially covered boundary
// words take a masked CAS.
func clearPairs(ws []uint32, start, end mem.Address, unitLog uint) {
	if start >= end {
		return
	}
	u0 := uint64(start) >> unitLog
	u1 := uint64(start+(end-start-1)>>unitLog<<unitLog)>>unitLog + 1
	w0, s0 := int(u0/16), uint(u0%16)*2
	w1, s1 := int(u1/16), uint(u1%16)*2
	if w0 == w1 {
		clearBits32(&ws[w0], (^uint32(0)<<s0)&^(^uint32(0)<<s1))
		return
	}
	if s0 != 0 {
		clearBits32(&ws[w0], ^uint32(0)<<s0)
		w0++
	}
	for w := w0; w < w1; w++ {
		atomic.StoreUint32(&ws[w], 0)
	}
	if s1 != 0 {
		clearBits32(&ws[w1], ^(^uint32(0) << s1))
	}
}

// lineUsed is non-zero when line i of the counts ws and covers cs is used.
func lineUsed(ws, cs []uint32, i int) uint32 {
	return atomic.LoadUint32(&ws[i]) | atomic.LoadUint32(&cs[i])
}

// FreeLineBits fills bits with one bit per line of the block whose
// first global line is firstLine (set = free: RC word and cover entry
// both zero), the whole block's bitmap for the allocator's
// word-at-a-time span scan (immix.LineMap).
func (t *RCTable) FreeLineBits(firstLine int, bits *[mem.LinesPerBlock / 32]uint32) {
	for i := range bits {
		lo, hi := firstLine+i*32, firstLine+i*32+32
		ws, cs := t.words[lo:hi:hi], t.cover[lo:hi:hi]
		var w uint32
		for b := range ws {
			if lineUsed(ws, cs, b) == 0 {
				w |= 1 << uint(b)
			}
		}
		bits[i] = w
	}
}

// LineSummary scans the n lines starting at global line firstLine and
// reports whether any is free (RC word and cover entry zero) and whether
// any is used. Sweep classification needs only these two facts — empty
// (!anyUsed), partial (anyFree && anyUsed), or full (!anyFree) — so the
// scan stops as soon as both are known, which for the common partially
// occupied block is after a handful of loads instead of a fixed
// LinesPerBlock probes through per-line accessors.
// The loop structure matters: the young sweep's dominant case is the
// all-free block, so the scan measures the leading run of free words
// four at a time (one OR-reduced branch per four loads) and only
// switches to hunting for a free word — with immediate exit — if the
// run breaks before the end.
func (t *RCTable) LineSummary(firstLine, n int) (anyFree, anyUsed bool) {
	end := firstLine + n
	ws, cs := t.words[firstLine:end:end], t.cover[firstLine:end:end]
	if len(ws) == 0 {
		return false, false
	}
	i := 0
	for ; i+4 <= len(ws); i += 4 {
		if lineUsed(ws, cs, i)|lineUsed(ws, cs, i+1)|
			lineUsed(ws, cs, i+2)|lineUsed(ws, cs, i+3) != 0 {
			break
		}
	}
	for ; i < len(ws); i++ {
		if lineUsed(ws, cs, i) != 0 {
			break
		}
	}
	if i == len(ws) {
		return true, false
	}
	if i > 0 {
		return true, true
	}
	for i = 1; i < len(ws); i++ {
		if lineUsed(ws, cs, i) == 0 {
			return true, true
		}
	}
	return false, true
}

// clearBits32 atomically clears the masked bits of *w.
func clearBits32(w *uint32, mask uint32) {
	for {
		old := atomic.LoadUint32(w)
		if old&mask == 0 || atomic.CompareAndSwapUint32(w, old, old&^mask) {
			return
		}
	}
}

// countedMask folds one line's RC word to a 16-bit mask: bit i is set
// when granule i of the line carries a non-zero count. The first step
// puts the counted positions on the even bits; the shift-or ladder
// packs them into the low half word.
func countedMask(w uint32) uint32 {
	x := (w | w>>1) & 0x5555_5555
	x = (x | x>>1) & 0x3333_3333
	x = (x | x>>2) & 0x0f0f_0f0f
	x = (x | x>>4) & 0x00ff_00ff
	return (x | x>>8) & 0xffff
}

// UnmarkedStarts returns the 16-bit mask of granules on global line idx
// that carry a non-zero count and have no mark bit set: the object
// starts a completed SATB trace left unmarked. One line is one RC word
// and half a word of the granule mark table, so two loads decide
// sixteen granules — and a zero RC word decides them with one. marks
// must be a granule-unit table.
func (t *RCTable) UnmarkedStarts(idx int, marks *BitTable) uint32 {
	w := atomic.LoadUint32(&t.words[idx])
	if w == 0 {
		return 0
	}
	return countedMask(w) &^ marks.lineBits(idx)
}

// BitTable is a 1-bit-per-unit table with atomic set/clear/test, used for
// unlogged bits (one per 8-byte field) and SATB mark bits (one per
// granule).
type BitTable struct {
	words    []uint32
	unitLog  uint // log2 of bytes per unit
	unitMask uint64
}

// NewBitTable creates a bit table with one bit per 2^unitLog bytes of arena.
func NewBitTable(a *mem.Arena, unitLog uint) *BitTable {
	units := a.Size() >> unitLog
	return &BitTable{
		words:   make([]uint32, (units+31)/32),
		unitLog: unitLog,
	}
}

func (t *BitTable) index(addr mem.Address) (int, uint32) {
	u := uint64(addr) >> t.unitLog
	return int(u / 32), uint32(1) << (u % 32)
}

// Get reports whether the bit for addr is set.
func (t *BitTable) Get(addr mem.Address) bool {
	w, m := t.index(addr)
	return atomic.LoadUint32(&t.words[w])&m != 0
}

// Set sets the bit for addr.
func (t *BitTable) Set(addr mem.Address) {
	w, m := t.index(addr)
	for {
		old := atomic.LoadUint32(&t.words[w])
		if old&m != 0 || atomic.CompareAndSwapUint32(&t.words[w], old, old|m) {
			return
		}
	}
}

// Clear clears the bit for addr.
func (t *BitTable) Clear(addr mem.Address) {
	w, m := t.index(addr)
	for {
		old := atomic.LoadUint32(&t.words[w])
		if old&m == 0 || atomic.CompareAndSwapUint32(&t.words[w], old, old&^m) {
			return
		}
	}
}

// TrySet atomically sets the bit for addr and reports whether this call
// was the one that set it (false if it was already set). This is the
// "attempt to mark" operation of parallel tracers.
func (t *BitTable) TrySet(addr mem.Address) bool {
	w, m := t.index(addr)
	for {
		old := atomic.LoadUint32(&t.words[w])
		if old&m != 0 {
			return false
		}
		if atomic.CompareAndSwapUint32(&t.words[w], old, old|m) {
			return true
		}
	}
}

// ClearAll clears every bit in the table. Stopped world only: see
// ClearWords.
func (t *BitTable) ClearAll() { clear(t.words) }

// Words returns the number of 32-bit words backing the table, for
// callers that partition a full-table operation across workers.
func (t *BitTable) Words() int { return len(t.words) }

// ClearWords clears words [lo, hi) of the table. Combined with Words it
// lets pause code parallelize a full clear over gcwork.ParallelFor
// instead of walking the whole table on one thread.
//
// Stopped world only. The clear is plain stores (a memclr), not one
// atomic store — an XCHG on amd64 — per word: the caller must be inside
// a pause with mutators parked and any concurrent collector thread
// quiesced, so the rendezvous and the pool dispatch order it against
// every atomic access to the table outside the pause (DESIGN.md,
// "Stopped-world table clears"). The same holds for ClearAll,
// LineCounters.ResetRange/ResetAll and immix.BlockTable.ClearLiveRange.
func (t *BitTable) ClearWords(lo, hi int) { clear(t.words[lo:hi]) }

// lineBits returns the 16 bits covering the granules of global line idx.
// Only a granule-unit table has a line as half a word.
func (t *BitTable) lineBits(idx int) uint32 {
	if t.unitLog != mem.GranuleLog {
		panic("meta: lineBits on a table whose unit is not the granule")
	}
	return (atomic.LoadUint32(&t.words[idx>>1]) >> (uint(idx&1) * mem.GranulesPerLine)) & 0xffff
}

// rangeWords maps [start, end) to the unit-index range the equivalent
// per-unit loop would visit (stepping by the unit size from start,
// which need not be aligned) and the word/shift coordinates of its
// endpoints.
func (t *BitTable) rangeWords(start, end mem.Address) (w0 int, s0 uint, w1 int, s1 uint, ok bool) {
	if start >= end {
		return 0, 0, 0, 0, false
	}
	step := mem.Address(1) << t.unitLog
	u0 := uint64(start) >> t.unitLog
	u1 := uint64(start+((end-start-1)/step)*step)>>t.unitLog + 1
	return int(u0 / 32), uint(u0 % 32), int(u1 / 32), uint(u1 % 32), true
}

// ClearRange clears the bit for every unit the equivalent per-unit loop
// over [start, end) would touch, word-at-a-time: fully covered words
// are single atomic stores, the partially covered boundary words
// masked CASes.
func (t *BitTable) ClearRange(start, end mem.Address) {
	w0, s0, w1, s1, ok := t.rangeWords(start, end)
	if !ok {
		return
	}
	if w0 == w1 {
		clearBits32(&t.words[w0], (^uint32(0)<<s0)&^(^uint32(0)<<s1))
		return
	}
	if s0 != 0 {
		clearBits32(&t.words[w0], ^uint32(0)<<s0)
		w0++
	}
	for w := w0; w < w1; w++ {
		atomic.StoreUint32(&t.words[w], 0)
	}
	if s1 != 0 {
		clearBits32(&t.words[w1], ^(^uint32(0) << s1))
	}
}

// Word returns the raw uint32 holding bits [32*idx, 32*idx+32) of the
// table. For a table whose unit is the line (unitLog = LineSizeLog) it
// exposes 32 lines' worth of marks in one load, which is what the
// allocator's word-at-a-time span scan wants.
func (t *BitTable) Word(idx int) uint32 {
	return atomic.LoadUint32(&t.words[idx])
}

// LineCounters keeps one 32-bit counter per line. G1 uses it for the
// line reuse counters that guard against stale remembered-set entries:
// counters are bumped when a region is freed and reset at each marking
// start; a remset entry tagged with an older count is discarded at
// evacuation time.
type LineCounters struct {
	counts []uint32
}

// NewLineCounters creates per-line counters for the whole arena.
func NewLineCounters(a *mem.Arena) *LineCounters {
	return &LineCounters{counts: make([]uint32, a.Size()/mem.LineSize)}
}

// Get returns the counter for global line idx.
func (c *LineCounters) Get(idx int) uint32 { return atomic.LoadUint32(&c.counts[idx]) }

// GetAddr returns the counter for the line containing addr.
func (c *LineCounters) GetAddr(addr mem.Address) uint32 { return c.Get(addr.Line()) }

// Bump increments the counter for global line idx.
func (c *LineCounters) Bump(idx int) { atomic.AddUint32(&c.counts[idx], 1) }

// BumpRange increments the counter of every line in [start, end).
func (c *LineCounters) BumpRange(start, end mem.Address) {
	for l := start.Line(); l < end.AlignUp(mem.LineSize).Line(); l++ {
		c.Bump(l)
	}
}

// ResetAll zeroes every counter. Called at each SATB start, in the pause.
func (c *LineCounters) ResetAll() {
	c.ResetRange(0, len(c.counts))
}

// Len returns the number of per-line counters.
func (c *LineCounters) Len() int { return len(c.counts) }

// ResetRange zeroes counters [lo, hi), so the full reset can be
// partitioned across pause workers. Stopped world only, plain stores:
// see BitTable.ClearWords.
func (c *LineCounters) ResetRange(lo, hi int) { clear(c.counts[lo:hi]) }
