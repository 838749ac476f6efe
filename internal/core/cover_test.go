package core

import (
	"testing"

	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

// TestStraddlingObjectHoldsItsLine: an 80-byte object placed 192 bytes
// into a line reaches 16 bytes into the next one. Once the increment
// drain promotes it, that line carries its cover entry: FreeLineBits
// reports it used and an allocator recycling the block starts on the
// line after it. The line comes back when the object dies, by a last
// decrement on the concurrent driver and by the SATB reclamation sweep.
func TestStraddlingObjectHoldsItsLine(t *testing.T) {
	p := New(Config{HeapBytes: 8 << 20, GCThreads: 2})
	v := vm.New(p, 0)
	defer v.Shutdown()
	p.conc.quiesce()
	defer p.conc.release()

	// One block, memory zero (free granules), holding the straddlers on
	// lines 0 and 4 and a live, marked counted object on its last line,
	// so the block stays partly used and the sweep keeps that one.
	blk, ok := p.bt.AcquireClean()
	if !ok {
		t.Fatal("no clean block")
	}
	p.bt.Retire(blk)
	base := blk * mem.LinesPerBlock
	var straddlers [2]obj.Ref
	for i, l := range []int{0, 4} {
		straddlers[i] = mem.LineStart(base+l) + 192
		p.om.WriteHeader(straddlers[i], obj.Layout{Size: 80})
	}
	last := mem.LineStart(base + mem.LinesPerBlock - 1)
	p.om.WriteHeader(last, obj.Layout{Size: 64})
	p.rc.Set(last, 1)
	p.marks.Set(last)

	free := func(l int) bool {
		var bm [mem.LinesPerBlock / 32]uint32
		p.rc.FreeLineBits(base, &bm)
		return bm[l/32]&(1<<uint(l%32)) != 0
	}
	lineOf := func(r obj.Ref) int { return r.Line() - base }
	for _, s := range straddlers {
		if !free(lineOf(s) + 1) {
			t.Fatalf("line %d reads used before the straddler is promoted", lineOf(s)+1)
		}
	}

	// Promote both through the increment drain, from two roots.
	roots := []obj.Ref{straddlers[0], straddlers[1]}
	p.rootSlots = []*obj.Ref{&roots[0], &roots[1]}
	if msg := drainCaught(p, [][]mem.Address{{rootTag | 0, rootTag | 1}}); msg != "" {
		t.Fatalf("the drain panicked: %s", msg)
	}
	for _, s := range straddlers {
		l := lineOf(s)
		if p.rc.Get(s) != 1 || p.om.Resolve(s) != s {
			t.Fatalf("straddler %x: count %d, at %x: want promoted in place", uint64(s), p.rc.Get(s), uint64(p.om.Resolve(s)))
		}
		if p.rc.LineWord(base+l+1) != 0 || !p.rc.Covered(base+l+1) || free(l+1) {
			t.Fatalf("line %d after promotion: RC word %#x, covered %v, free %v; want no count, covered, used",
				l+1, p.rc.LineWord(base+l+1), p.rc.Covered(base+l+1), free(l+1))
		}
		if !free(l + 2) {
			t.Fatalf("line %d, past the straddler, reads used", l+2)
		}
	}

	// An allocator recycling the block takes the first free line after
	// the covered one, and the whole run up to the next straddler.
	p.bt.Retire(blk)
	p.bt.ReleaseRecycled(blk)
	rec := &immix.Allocator{BT: p.bt, Lines: p.rc, OnSpan: p.onSpan}
	if a, ok := rec.Alloc(2 * mem.LineSize); !ok || a != mem.LineStart(base+2) {
		t.Fatalf("recycling allocation at %x ok=%v, want line 2 (%x)", uint64(a), ok, uint64(mem.LineStart(base+2)))
	}
	rec.Flush()
	p.bt.TakeDirty()
	p.bt.ClearFlag(blk, immix.FlagYoung|immix.FlagDirty)

	// The first straddler dies by a last decrement on the driver.
	p.applyDec(true, straddlers[0], &decTally{}, func(obj.Ref) {}, func(int) {})
	if l := lineOf(straddlers[0]); !free(l) || !free(l+1) || p.rc.Covered(base+l+1) {
		t.Fatalf("after the decrement death: line %d free %v, line %d free %v covered %v; want both free",
			l, free(l), l+1, free(l+1), p.rc.Covered(base+l+1))
	}

	// The second dies in the SATB sweep: a completed trace left it
	// unmarked.
	p.completeSATB(false)
	p.finishSweep()
	if l := lineOf(straddlers[1]); p.rc.Get(straddlers[1]) != 0 || !free(l) || !free(l+1) || p.rc.Covered(base+l+1) {
		t.Fatalf("after the SATB sweep: count %d, line %d free %v, line %d free %v covered %v; want both free",
			p.rc.Get(straddlers[1]), l, free(l), l+1, free(l+1), p.rc.Covered(base+l+1))
	}
	if free(mem.LinesPerBlock - 1) {
		t.Fatal("the sweep freed the marked object's line")
	}
}
