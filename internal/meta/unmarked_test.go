package meta_test

import (
	"math/rand"
	"testing"

	"lxr/internal/mem"
	"lxr/internal/meta"
)

// The SATB sweep's mask kernel decides a line's sixteen granules from
// one RC word and half a word of each granule bit table. Its scalar
// model is the per-granule probe the sweep used to make: counted, not a
// straddle marker, not marked.

// lineTables is one RC table and two granule bit tables over a shared
// arena, with the scalar model of UnmarkedStarts beside them.
type lineTables struct {
	rc              *meta.RCTable
	marks, straddle *meta.BitTable
}

func newLineTables() lineTables {
	a := arena()
	return lineTables{
		rc:       meta.NewRCTable(a),
		marks:    meta.NewBitTable(a, mem.GranuleLog),
		straddle: meta.NewBitTable(a, mem.GranuleLog),
	}
}

// load writes the line's metadata: rcWord holds sixteen 2-bit counts,
// the low sixteen bits of markBits and straddleBits one bit per granule.
func (lt lineTables) load(line int, rcWord, markBits, straddleBits uint32) {
	for g := 0; g < mem.GranulesPerLine; g++ {
		a := mem.LineStart(line) + mem.Address(g)<<mem.GranuleLog
		lt.rc.Set(a, rcWord>>(2*g)&meta.RCMax)
		setBit(lt.marks, a, markBits>>g&1 != 0)
		setBit(lt.straddle, a, straddleBits>>g&1 != 0)
	}
}

func setBit(t *meta.BitTable, a mem.Address, on bool) {
	if on {
		t.Set(a)
	} else {
		t.Clear(a)
	}
}

// scalar is the per-granule model: three probes per granule.
func (lt lineTables) scalar(line int) uint32 {
	var m uint32
	for g := 0; g < mem.GranulesPerLine; g++ {
		a := mem.LineStart(line) + mem.Address(g)<<mem.GranuleLog
		if lt.rc.Get(a) != 0 && !lt.straddle.Get(a) && !lt.marks.Get(a) {
			m |= 1 << g
		}
	}
	return m
}

// check loads one line and its neighbours (which must not leak into the
// line's mask: an even line shares its bit-table words with the odd
// line after it) and compares kernel and model.
func (lt lineTables) check(t *testing.T, line int, rcWord, markBits, straddleBits, noise uint32) {
	t.Helper()
	lt.load(line-1, noise, ^noise, noise>>7)
	lt.load(line+1, ^noise, noise>>3, ^noise>>11)
	lt.load(line, rcWord, markBits, straddleBits)
	got, want := lt.rc.UnmarkedStarts(line, lt.marks, lt.straddle), lt.scalar(line)
	if got != want {
		t.Fatalf("line %d rc=%#08x marks=%#04x straddle=%#04x: kernel %#04x, scalar model %#04x",
			line, rcWord, markBits&0xffff, straddleBits&0xffff, got, want)
	}
}

func TestUnmarkedStartsMatchesScalar(t *testing.T) {
	lt := newLineTables()
	r := rand.New(rand.NewSource(15))
	lines := []int{mem.LinesPerBlock + 2, mem.LinesPerBlock + 3} // one of each parity
	// Every position, every count value (3 is the stuck count), alone on
	// the line, crossed with that granule's mark and straddle bits.
	for _, line := range lines {
		for g := 0; g < mem.GranulesPerLine; g++ {
			for c := uint32(1); c <= meta.RCMax; c++ {
				for flags := uint32(0); flags < 4; flags++ {
					lt.check(t, line, c<<(2*g), (flags&1)<<g, (flags>>1)<<g, r.Uint32())
				}
			}
		}
	}
	// A line of stuck counts, and a fully counted line with every
	// mark/straddle pattern drawn at random.
	for trial := 0; trial < 4000; trial++ {
		line := lines[trial%2]
		rcWord := r.Uint32()
		switch trial % 4 {
		case 0:
			rcWord = ^uint32(0)
		case 1:
			rcWord |= 0x5555_5555
		case 2:
			rcWord &= r.Uint32() & r.Uint32() // sparse
		}
		lt.check(t, line, rcWord, r.Uint32(), r.Uint32(), r.Uint32())
	}
}

func FuzzUnmarkedStarts(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), false)
	f.Add(^uint32(0), uint32(0), uint32(0), ^uint32(0), true)
	f.Add(uint32(0xc000_0003), uint32(0x8001), uint32(0x0001), uint32(0x1234_5678), false)
	f.Add(uint32(0x5555_5555), uint32(0xaaaa), uint32(0x5555), uint32(0), true)
	lt := newLineTables()
	f.Fuzz(func(t *testing.T, rcWord, markBits, straddleBits, noise uint32, odd bool) {
		line := mem.LinesPerBlock + 2
		if odd {
			line++
		}
		lt.check(t, line, rcWord, markBits, straddleBits, noise)
	})
}

// BlockLiveGranules shares the kernel's counted fold; its model is a
// count of non-zero 2-bit fields.
func TestBlockLiveGranulesMatchesScalar(t *testing.T) {
	rc := meta.NewRCTable(arena())
	r := rand.New(rand.NewSource(16))
	const blk = 2
	for trial := 0; trial < 200; trial++ {
		want := 0
		for a := mem.BlockStart(blk); a < mem.BlockStart(blk+1); a += mem.Granule {
			c := uint32(0)
			if r.Intn(3) == 0 {
				c = 1 + uint32(r.Intn(meta.RCMax))
			}
			rc.Set(a, c)
			if c != 0 {
				want++
			}
		}
		if got := rc.BlockLiveGranules(blk); got != want {
			t.Fatalf("trial %d: BlockLiveGranules = %d, scalar count %d", trial, got, want)
		}
	}
}
