package core

import (
	"math/rand"
	"testing"

	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
)

// sweepBlockUnmarkedRef is the per-granule loop the word-parallel sweep
// replaced: two metadata probes for every granule of the block, then
// the same per-object path.
func sweepBlockUnmarkedRef(p *LXR, idx int) (dead, skipped, bytes int) {
	start := mem.BlockStart(idx)
	for g := 0; g < mem.GranulesPerBlock; g++ {
		a := start + mem.Address(g)<<mem.GranuleLog
		if p.rc.Get(a) == 0 || p.marks.Get(a) {
			continue
		}
		if !p.saneRef(a) {
			p.rc.Set(a, 0)
			skipped++
			continue
		}
		bytes += p.om.Size(a)
		p.reclaimObjectMeta(a)
		dead++
	}
	return dead, skipped, bytes
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
	strays     int     // counted granules that are not object starts
	endAtBlock bool    // the last object is multi-line and ends at the block boundary
}

// fillBlock bump-allocates objects over block idx as promotion would
// leave them — header, count, cover entries on every line an object
// reaches past its first, mark bit — and then scatters stray counts: on
// free granules (a zero header: not an object) and inside objects, whose
// payload is random and may decode to a header of any size, including
// one that runs over real objects or past the end of the block.
func fillBlock(p *LXR, idx int, r *rand.Rand, f blockFill) {
	start, end := mem.BlockStart(idx), mem.BlockStart(idx+1)
	place := func(a mem.Address, size int) {
		p.om.WriteHeader(a, obj.Layout{Size: size})
		for w := a + obj.HeaderBytes; w < a+mem.Address(size); w += mem.WordSize {
			p.om.A.Store(w, garbageWord(r))
		}
		if r.Float64() >= f.promoted {
			return
		}
		p.rc.Set(a, 1+uint32(r.Intn(meta.RCMax)))
		p.markStraddleLines(a, size)
		if r.Float64() < f.marked {
			p.marks.Set(a)
		}
	}
	a := start
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
	for i := 0; i < f.strays; i++ {
		g := start + mem.Address(r.Intn(mem.GranulesPerBlock))<<mem.GranuleLog
		if p.rc.Get(g) == 0 {
			p.rc.Set(g, 1+uint32(r.Intn(meta.RCMax)))
		}
	}
}

// sweepFills are the block populations the sweep tests draw from.
var sweepFills = []blockFill{
	{maxSize: 64, promoted: 1, marked: 0.5},                                   // small objects, half dead
	{maxSize: 64, promoted: 1, marked: 1},                                     // all marked
	{maxSize: 256, promoted: 1, marked: 0},                                    // all dead
	{maxSize: 8 * mem.LineSize, promoted: 0.8, marked: 0.5, gap: 0.3},         // straddlers among gaps
	{maxSize: 8 * mem.LineSize, promoted: 0.9, marked: 0.3, endAtBlock: true}, // last object ends at the block boundary
	{maxSize: 512, promoted: 0.7, marked: 0.6, gap: 0.2, strays: 40},          // stray counts
	{maxSize: 4 * mem.LineSize, promoted: 0.9, marked: 0.2, gap: 0.1, strays: 200, endAtBlock: true},
	{maxSize: 64, promoted: 0, strays: 3}, // young block with a few stray counts
}

// garbageWord draws payload that sometimes reads as a plausible header:
// a small size, a size of many lines, one past the large threshold with
// or without the large flag, or noise.
func garbageWord(r *rand.Rand) uint64 {
	switch r.Intn(6) {
	case 0:
		return uint64(r.Intn(8)) * mem.Granule
	case 1:
		return uint64(1+r.Intn(64)) * mem.LineSize
	case 2:
		return uint64(obj.LargeThreshold + mem.Granule*(1+r.Intn(64)))
	case 3:
		return uint64(obj.LargeThreshold+mem.Granule) | obj.FlagLarge
	default:
		return r.Uint64()
	}
}

// TestSweepBlockUnmarkedMatchesPerGranuleReference fills the same
// randomized blocks into two heaps, sweeps one with the word-parallel
// walk and one with the per-granule reference, and asks for the same
// dead count, the same skip count, the same freed bytes (the pacer's
// SATB vote runs on them) and identical RC words and cover entries over
// the whole arena (a clobbered header must not reach into a
// neighbouring block on either side).
func TestSweepBlockUnmarkedMatchesPerGranuleReference(t *testing.T) {
	const blocks = 4
	var deadTotal, skipTotal int
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
		dead, skipped, bytes := fast.sweepBlockUnmarked(idx)
		wantDead, wantSkipped, wantBytes := sweepBlockUnmarkedRef(ref, idx)
		if dead != wantDead || skipped != wantSkipped || bytes != wantBytes {
			t.Fatalf("trial %d (%+v): dead=%d skipped=%d bytes=%d, reference dead=%d skipped=%d bytes=%d",
				trial, f, dead, skipped, bytes, wantDead, wantSkipped, wantBytes)
		}
		for l := 0; l < blocks*mem.LinesPerBlock; l++ {
			if g, w := fast.rc.LineWord(l), ref.rc.LineWord(l); g != w {
				t.Fatalf("trial %d (%+v): RC word of line %d (block %d) = %#08x, reference %#08x",
					trial, f, l, l/mem.LinesPerBlock, g, w)
			}
			if g, w := fast.rc.Covered(l), ref.rc.Covered(l); g != w {
				t.Fatalf("trial %d (%+v): cover entry of line %d (block %d) = %v, reference %v",
					trial, f, l, l/mem.LinesPerBlock, g, w)
			}
		}
		deadTotal += dead
		skipTotal += skipped
	}
	if deadTotal == 0 || skipTotal == 0 {
		t.Fatalf("the trials exercised nothing: dead=%d skipped=%d", deadTotal, skipTotal)
	}
}

// BenchmarkSweepUnmarked reports the unmarked sweep's cost per block at
// four occupancies: no counted granule, every object marked, every
// second object dead, every object dead. Blocks hold 64-byte objects
// back to back. A sweep consumes the dead objects' counts, so blocks
// are refilled between iterations with the timer stopped.
func BenchmarkSweepUnmarked(b *testing.B) {
	const blocks = 64
	for _, bc := range []struct {
		name      string
		counted   bool // objects carry counts (otherwise the blocks stay empty)
		markEvery int  // mark objects whose index is a multiple; 0 marks none
	}{
		{"empty", false, 0},
		{"all-marked", true, 1},
		{"half-dead", true, 2},
		{"all-dead", true, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := sweepHeap(blocks + 1)
			fill := func() {
				for a, i := mem.BlockStart(1), 0; a < mem.BlockStart(blocks+1); a, i = a+64, i+1 {
					p.om.WriteHeader(a, obj.Layout{Size: 64})
					p.rc.Set(a, 1)
					if bc.markEvery != 0 && i%bc.markEvery == 0 {
						p.marks.Set(a)
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
					d, _, _ := p.sweepBlockUnmarked(idx)
					dead += d
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
			b.ReportMetric(float64(dead)/float64(b.N*blocks), "dead/block")
		})
	}
}
