package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
)

// sweepBlockUnmarkedRef is the per-granule, per-object sweep the
// metadata-only walk replaced: two metadata probes for every granule of
// the block and, for each unmarked counted start, its header's size to
// clear the count and the covers it reaches. Freed lines come from a
// scalar line model: a line is used while its RC word or its cover
// entry is non-zero, and freed when the sweep takes it from used to
// free.
func sweepBlockUnmarkedRef(p *LXR, idx int) (dead, freedLines int) {
	first := idx * mem.LinesPerBlock
	used := func(l int) bool { return p.rc.LineWord(l) != 0 || p.rc.Covered(l) }
	var before [mem.LinesPerBlock]bool
	for l := range before {
		before[l] = used(first + l)
	}
	start := mem.BlockStart(idx)
	for g := 0; g < mem.GranulesPerBlock; g++ {
		a := start + mem.Address(g)<<mem.GranuleLog
		if p.rc.Get(a) == 0 || p.marks.Get(a) {
			continue
		}
		p.rc.Set(a, 0)
		p.rc.Cover(a, p.om.Size(a), 0)
		dead++
	}
	for l, u := range before {
		if u && !used(first+l) {
			freedLines++
		}
	}
	return dead, freedLines
}

// sweepHeap is the slice of an LXR plan the unmarked sweep reads and
// writes: an arena of object headers, the RC table with its cover
// entries, and the granule mark table.
func sweepHeap(blocks int) *LXR {
	a := mem.NewArena(blocks * mem.BlockSize)
	return &LXR{
		om:    obj.Model{A: a},
		rc:    meta.NewRCTable(a),
		marks: meta.NewBitTable(a, mem.GranuleLog),
	}
}

// blockFill describes one randomized block population.
type blockFill struct {
	maxSize    int     // object sizes are drawn from [16, maxSize]
	promoted   float64 // share of objects carrying a count (the rest are young)
	marked     float64 // share of counted objects the trace marked
	gap        float64 // chance of leaving free granules before an object
	endAtBlock bool    // the last object is multi-line and ends at the block boundary
}

// fillBlock bump-allocates objects over block idx as promotion would
// leave them: header, and for a counted object its count, the cover
// entries of every line it reaches past its first, and maybe its mark
// bit.
func fillBlock(p *LXR, idx int, r *rand.Rand, f blockFill) {
	end := mem.BlockStart(idx + 1)
	place := func(a mem.Address, size int) {
		p.om.WriteHeader(a, obj.Layout{Size: size})
		if r.Float64() >= f.promoted {
			return
		}
		p.rc.Set(a, 1+uint32(r.Intn(meta.RCMax)))
		p.markStraddleLines(a, size)
		if r.Float64() < f.marked {
			p.marks.Set(a)
		}
	}
	a := mem.BlockStart(idx)
	tail := 0
	if f.endAtBlock {
		tail = (2 + r.Intn(6)) * mem.LineSize
	}
	for {
		if r.Float64() < f.gap {
			a += mem.Address(1+r.Intn(40)) << mem.GranuleLog
		}
		size := (1 + r.Intn(f.maxSize/mem.Granule)) * mem.Granule
		if a+mem.Address(size+tail) > end {
			break
		}
		place(a, size)
		a += mem.Address(size)
	}
	if f.endAtBlock {
		place(end-mem.Address(tail), tail)
	}
}

// sweepFills are the block populations the sweep tests draw from.
var sweepFills = []blockFill{
	{maxSize: 64, promoted: 1, marked: 0.5},                                   // small objects, half dead
	{maxSize: 64, promoted: 1, marked: 1},                                     // all marked
	{maxSize: 256, promoted: 1, marked: 0},                                    // all dead
	{maxSize: 8 * mem.LineSize, promoted: 0.8, marked: 0.5, gap: 0.3},         // straddlers among gaps
	{maxSize: 8 * mem.LineSize, promoted: 0.9, marked: 0.3, endAtBlock: true}, // last object ends at the block boundary
	{maxSize: 512, promoted: 0.7, marked: 0.6, gap: 0.2},                      // young objects between counted ones
	{maxSize: 4 * mem.LineSize, promoted: 0.5, marked: 0.5, gap: 0.1, endAtBlock: true},
	{maxSize: 64, promoted: 0}, // young block
}

// TestSweepBlockUnmarkedMatchesPerGranuleReference fills the same
// randomized blocks into two heaps, sweeps one with the metadata-only
// walk and one with the per-granule reference, and asks for the same
// dead count, the same freed-line count (the pacer's SATB vote runs on
// it) and identical RC words and cover entries over the whole arena.
func TestSweepBlockUnmarkedMatchesPerGranuleReference(t *testing.T) {
	const blocks = 4
	var deadTotal, freedTotal int
	for trial := 0; trial < 600; trial++ {
		f := sweepFills[trial%len(sweepFills)]
		fast, ref := sweepHeap(blocks), sweepHeap(blocks)
		for idx := 1; idx < blocks; idx++ {
			seed := int64(trial*blocks + idx)
			fillBlock(fast, idx, rand.New(rand.NewSource(seed)), f)
			fillBlock(ref, idx, rand.New(rand.NewSource(seed)), f)
		}
		// Sweep the middle block only: its neighbours are populated and
		// must come out untouched.
		const idx = 2
		dead, freed := fast.sweepBlockUnmarked(idx)
		wantDead, wantFreed := sweepBlockUnmarkedRef(ref, idx)
		if dead != wantDead || freed != wantFreed {
			t.Fatalf("trial %d (%+v): dead=%d freed lines=%d, reference dead=%d freed lines=%d",
				trial, f, dead, freed, wantDead, wantFreed)
		}
		sameLineMeta(t, fast, ref, blocks)
		deadTotal += dead
		freedTotal += freed
	}
	if deadTotal == 0 || freedTotal == 0 {
		t.Fatalf("the trials exercised nothing: dead=%d freed lines=%d", deadTotal, freedTotal)
	}
}

// sameLineMeta fails t unless heaps a and b hold identical RC words and
// cover entries on every line of their first blocks blocks.
func sameLineMeta(t *testing.T, a, b *LXR, blocks int) {
	t.Helper()
	for l := 0; l < blocks*mem.LinesPerBlock; l++ {
		if g, w := a.rc.LineWord(l), b.rc.LineWord(l); g != w {
			t.Fatalf("RC word of line %d (block %d) = %#08x, reference %#08x", l, l/mem.LinesPerBlock, g, w)
		}
		if g, w := a.rc.Covered(l), b.rc.Covered(l); g != w {
			t.Fatalf("cover entry of line %d (block %d) = %v, reference %v", l, l/mem.LinesPerBlock, g, w)
		}
	}
}

// TestSweepClearsOnlyDeadOwnersCovers: a dead object reaching over
// three lines past its first, and a live, marked object starting in the
// last of them and reaching into the next. The sweep learns whose cover
// a line carries from the last counted start before it, not from a
// header: the dead object's three covers clear and the live object's
// survives. Three lines come back, the dead object's first and the two
// it held alone; the fourth holds the live object's start.
func TestSweepClearsOnlyDeadOwnersCovers(t *testing.T) {
	p := sweepHeap(3)
	const idx = 1
	base := idx * mem.LinesPerBlock
	deadObj := mem.LineStart(base+1) + 64
	liveObj := mem.LineStart(base+4) + 32
	for _, o := range []struct {
		at   mem.Address
		size int
	}{{deadObj, 3*mem.LineSize - 32}, {liveObj, mem.LineSize}} {
		p.om.WriteHeader(o.at, obj.Layout{Size: o.size})
		p.rc.Set(o.at, 1)
		p.markStraddleLines(o.at, o.size)
	}
	p.marks.Set(liveObj)
	for l := base + 2; l <= base+5; l++ {
		if !p.rc.Covered(l) {
			t.Fatalf("line %d is not covered before the sweep", l-base)
		}
	}

	dead, freed := p.sweepBlockUnmarked(idx)
	if dead != 1 || freed != 3 {
		t.Fatalf("dead=%d freed lines=%d, want 1 and 3 (the dead object's first line and the two it held alone)", dead, freed)
	}
	for l, want := range map[int]bool{2: false, 3: false, 4: false, 5: true} {
		if got := p.rc.Covered(base + l); got != want {
			t.Errorf("line %d covered=%v after the sweep, want %v", l, got, want)
		}
	}
	if p.rc.Get(deadObj) != 0 || p.rc.Get(liveObj) != 1 {
		t.Errorf("counts after the sweep: dead %d, live %d; want 0 and 1", p.rc.Get(deadObj), p.rc.Get(liveObj))
	}
}

// TestSweepStrayCountPanicsUnderVerify: the sweep reads no header and
// takes every count for an object start. A count on a granule that is
// no object (here a free one, its header zero) breaks that; under
// LXR_VERIFY the sweep decodes each dead start and panics, naming the
// granule. Without it the stray is cleared as a death.
func TestSweepStrayCountPanicsUnderVerify(t *testing.T) {
	defer func(on bool) { verifyEnabled = on }(verifyEnabled)
	const idx = 1
	objAt := mem.BlockStart(idx) + mem.LineSize
	stray := objAt + 4*mem.Granule
	for _, on := range []bool{true, false} {
		verifyEnabled = on
		p := sweepHeap(2)
		p.om.WriteHeader(objAt, obj.Layout{Size: 32})
		p.rc.Set(objAt, 1)
		p.marks.Set(objAt)
		p.rc.Set(stray, 2)
		var msg string
		var dead int
		func() {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			dead, _ = p.sweepBlockUnmarked(idx)
		}()
		want := fmt.Sprintf("count 2 at granule %x names no object", uint64(stray))
		switch {
		case on && !strings.Contains(msg, want):
			t.Errorf("under LXR_VERIFY: panic %q, want one with %q", msg, want)
		case !on && (msg != "" || dead != 1 || p.rc.Get(stray) != 0):
			t.Errorf("without LXR_VERIFY: panic %q, %d dead, stray count %d; want no panic and the stray cleared as one death",
				msg, dead, p.rc.Get(stray))
		}
		if p.rc.Get(objAt) != 1 {
			t.Errorf("verify=%v: the marked object's count became %d", on, p.rc.Get(objAt))
		}
	}
}

// BenchmarkSweepUnmarked reports the unmarked sweep's cost per block at
// five occupancies: no counted granule, every object marked, every
// second object dead, every object dead — 64-byte objects back to back,
// none crossing a line — and covered: objects of 80 to 600 bytes, every
// second one dead, so that most lines carry a cover entry and a dead
// owner's must be cleared. A sweep consumes the dead objects' counts,
// so blocks are refilled between iterations with the timer stopped.
func BenchmarkSweepUnmarked(b *testing.B) {
	const blocks = 64
	for _, bc := range []struct {
		name      string
		counted   bool // objects carry counts (otherwise the blocks stay empty)
		markEvery int  // mark objects whose index is a multiple; 0 marks none
		maxSize   int  // sizes drawn from [80, maxSize]; 0 means 64 bytes each
	}{
		{"empty", false, 0, 0},
		{"all-marked", true, 1, 0},
		{"half-dead", true, 2, 0},
		{"all-dead", true, 0, 0},
		{"covered", true, 2, 600},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := sweepHeap(blocks + 1)
			fill := func() {
				r := rand.New(rand.NewSource(1))
				for idx := 1; idx <= blocks; idx++ {
					end := mem.BlockStart(idx + 1)
					for a, i := mem.BlockStart(idx), 0; ; i++ {
						size := 64
						if bc.maxSize != 0 {
							size = 80 + r.Intn((bc.maxSize-80)/mem.Granule+1)*mem.Granule
						}
						if a+mem.Address(size) > end {
							break
						}
						p.om.WriteHeader(a, obj.Layout{Size: size})
						p.rc.Set(a, 1)
						p.markStraddleLines(a, size)
						if bc.markEvery != 0 && i%bc.markEvery == 0 {
							p.marks.Set(a)
						}
						a += mem.Address(size)
					}
				}
			}
			if bc.counted {
				fill()
			}
			consumes := bc.counted && bc.markEvery != 1 // some objects die each sweep
			dead := 0
			for i := 0; i < b.N; i++ {
				if consumes && i > 0 {
					b.StopTimer()
					fill()
					b.StartTimer()
				}
				for idx := 1; idx <= blocks; idx++ {
					d, _ := p.sweepBlockUnmarked(idx)
					dead += d
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
			b.ReportMetric(float64(dead)/float64(b.N*blocks), "dead/block")
		})
	}
}
