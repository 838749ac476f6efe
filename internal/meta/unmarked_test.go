package meta_test

import (
	"math/rand"
	"testing"

	"lxr/internal/mem"
	"lxr/internal/meta"
)

// The SATB sweep's mask kernels decide a line's sixteen granules from
// one RC word and half a word of the granule mark table, and clear the
// dead among them with one masked CAS. Their scalar models are the
// per-granule probes and stores the sweep used to make: counted, not
// marked; one count zeroed at a time.

// lineTables is one RC table and one granule mark table over a shared
// arena, with the scalar model of UnmarkedStarts beside them.
type lineTables struct {
	rc    *meta.RCTable
	marks *meta.BitTable
}

func newLineTables() lineTables {
	a := arena()
	return lineTables{
		rc:    meta.NewRCTable(a),
		marks: meta.NewBitTable(a, mem.GranuleLog),
	}
}

// load writes the line's metadata: rcWord holds sixteen 2-bit counts,
// the low sixteen bits of markBits one bit per granule.
func (lt lineTables) load(line int, rcWord, markBits uint32) {
	for g := 0; g < mem.GranulesPerLine; g++ {
		a := mem.LineStart(line) + mem.Address(g)<<mem.GranuleLog
		lt.rc.Set(a, rcWord>>(2*g)&meta.RCMax)
		setBit(lt.marks, a, markBits>>g&1 != 0)
	}
}

func setBit(t *meta.BitTable, a mem.Address, on bool) {
	if on {
		t.Set(a)
	} else {
		t.Clear(a)
	}
}

// scalar is the per-granule model: two probes per granule.
func (lt lineTables) scalar(line int) (counted, unmarked uint32) {
	for g := 0; g < mem.GranulesPerLine; g++ {
		a := mem.LineStart(line) + mem.Address(g)<<mem.GranuleLog
		if lt.rc.Get(a) != 0 {
			counted |= 1 << g
			if !lt.marks.Get(a) {
				unmarked |= 1 << g
			}
		}
	}
	return counted, unmarked
}

// check loads one line and its neighbours (which must not leak into the
// line's mask: an even line shares its bit-table words with the odd
// line after it) and compares kernel and model.
func (lt lineTables) check(t *testing.T, line int, rcWord, markBits, noise uint32) {
	t.Helper()
	lt.load(line-1, noise, ^noise)
	lt.load(line+1, ^noise, noise>>3)
	lt.load(line, rcWord, markBits)
	counted, unmarked := lt.rc.UnmarkedStarts(line, lt.marks)
	wantCounted, wantUnmarked := lt.scalar(line)
	if counted != wantCounted || unmarked != wantUnmarked {
		t.Fatalf("line %d rc=%#08x marks=%#04x: kernel counted %#04x unmarked %#04x, scalar model %#04x %#04x",
			line, rcWord, markBits&0xffff, counted, unmarked, wantCounted, wantUnmarked)
	}
}

func TestUnmarkedStartsMatchesScalar(t *testing.T) {
	lt := newLineTables()
	r := rand.New(rand.NewSource(15))
	lines := []int{mem.LinesPerBlock + 2, mem.LinesPerBlock + 3} // one of each parity
	// Every position, every count value (3 is the stuck count), alone on
	// the line, crossed with that granule's mark bit.
	for _, line := range lines {
		for g := 0; g < mem.GranulesPerLine; g++ {
			for c := uint32(1); c <= meta.RCMax; c++ {
				for mark := uint32(0); mark < 2; mark++ {
					lt.check(t, line, c<<(2*g), mark<<g, r.Uint32())
				}
			}
		}
	}
	// A line of stuck counts, and a fully counted line with every
	// mark pattern drawn at random.
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
		lt.check(t, line, rcWord, r.Uint32(), r.Uint32())
	}
}

func FuzzUnmarkedStarts(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), false)
	f.Add(^uint32(0), uint32(0), ^uint32(0), true)
	f.Add(uint32(0xc000_0003), uint32(0x8001), uint32(0x1234_5678), false)
	f.Add(uint32(0x5555_5555), uint32(0xaaaa), uint32(0), true)
	lt := newLineTables()
	f.Fuzz(func(t *testing.T, rcWord, markBits, noise uint32, odd bool) {
		line := mem.LinesPerBlock + 2
		if odd {
			line++
		}
		lt.check(t, line, rcWord, markBits, noise)
	})
}

// clearCheck loads a line and its neighbours (which must come out
// unchanged) into two RC tables, clears the granules of starts with
// ClearStarts in one and with the per-granule scalar loop in the other,
// and compares the three lines' RC words.
func clearCheck(t *testing.T, kernel, model *meta.RCTable, line int, rcWord, starts, noise uint32) {
	t.Helper()
	for _, rc := range []*meta.RCTable{kernel, model} {
		for l, w := range map[int]uint32{line - 1: noise, line: rcWord, line + 1: ^noise} {
			for g := 0; g < mem.GranulesPerLine; g++ {
				rc.Set(mem.LineStart(l)+mem.Address(g)<<mem.GranuleLog, w>>(2*g)&meta.RCMax)
			}
		}
	}
	kernel.ClearStarts(line, starts)
	for g := 0; g < mem.GranulesPerLine; g++ {
		if starts>>g&1 != 0 {
			model.Set(mem.LineStart(line)+mem.Address(g)<<mem.GranuleLog, 0)
		}
	}
	for l := line - 1; l <= line+1; l++ {
		if got, want := kernel.LineWord(l), model.LineWord(l); got != want {
			t.Fatalf("line %d rc=%#08x starts=%#04x: line %d reads %#08x after ClearStarts, scalar model %#08x",
				line, rcWord, starts&0xffff, l, got, want)
		}
	}
}

func TestClearStartsMatchesScalar(t *testing.T) {
	a := arena()
	kernel, model := meta.NewRCTable(a), meta.NewRCTable(a)
	r := rand.New(rand.NewSource(48))
	line := mem.LinesPerBlock + 2
	// Every position alone, at every count, cleared and left.
	for g := 0; g < mem.GranulesPerLine; g++ {
		for c := uint32(1); c <= meta.RCMax; c++ {
			clearCheck(t, kernel, model, line, c<<(2*g), 1<<g, r.Uint32())
			clearCheck(t, kernel, model, line, c<<(2*g), ^uint32(1<<g), r.Uint32())
		}
	}
	// Random words, stuck lines and masks with bits above the sixteenth,
	// which must be ignored.
	for trial := 0; trial < 4000; trial++ {
		rcWord := r.Uint32()
		if trial%3 == 0 {
			rcWord = ^uint32(0)
		}
		clearCheck(t, kernel, model, line, rcWord, r.Uint32(), r.Uint32())
	}
}

func FuzzClearStarts(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(^uint32(0), uint32(0xffff), ^uint32(0))
	f.Add(uint32(0xc000_0003), uint32(0x8001), uint32(0x1234_5678))
	f.Add(uint32(0x5555_5555), uint32(0xffff_aaaa), uint32(0))
	a := arena()
	kernel, model := meta.NewRCTable(a), meta.NewRCTable(a)
	f.Fuzz(func(t *testing.T, rcWord, starts, noise uint32) {
		clearCheck(t, kernel, model, mem.LinesPerBlock+2, rcWord, starts, noise)
	})
}
