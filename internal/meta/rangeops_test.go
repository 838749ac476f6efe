package meta_test

import (
	"math/rand"
	"testing"

	"lxr/internal/mem"
	"lxr/internal/meta"
)

// The word-at-a-time range operations must be bit-for-bit equivalent to
// the per-unit scalar loops they replaced, at every alignment. Each
// test drives the optimised operation and a scalar model side by side
// over randomised ranges and compares every unit in the test region.

const rangeTrials = 400

// testRegion returns a [start, end) window inside block 1 of a fresh
// arena, wide enough to cover several metadata words.
func testRegion() (mem.Address, mem.Address) {
	return mem.BlockStart(1), mem.BlockStart(3)
}

func randRange(r *rand.Rand, lo, hi mem.Address, align mem.Address) (mem.Address, mem.Address) {
	span := int64(hi - lo)
	a := lo + mem.Address(r.Int63n(span))
	b := lo + mem.Address(r.Int63n(span))
	if a > b {
		a, b = b, a
	}
	if r.Intn(2) == 0 { // half the trials unit-aligned, half arbitrary
		a = a &^ (align - 1)
		b = b &^ (align - 1)
	}
	return a, b
}

func TestRCClearRangeMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	lo, hi := testRegion()
	for trial := 0; trial < rangeTrials; trial++ {
		fast := meta.NewRCTable(arena())
		slow := meta.NewRCTable(arena())
		for a := lo; a < hi; a += mem.Granule {
			v := uint32(r.Intn(4))
			fast.Set(a, v)
			slow.Set(a, v)
		}
		s, e := randRange(r, lo, hi, mem.Granule)
		fast.ClearRange(s, e)
		for a := s; a < e; a += mem.Granule {
			slow.Set(a, 0)
		}
		for a := lo; a < hi; a += mem.Granule {
			if f, w := fast.Get(a), slow.Get(a); f != w {
				t.Fatalf("trial %d range [%#x,%#x): granule %#x got %d want %d",
					trial, s, e, a, f, w)
			}
		}
	}
}

func TestBitTableRangesMatchScalar(t *testing.T) {
	for _, unitLog := range []uint{mem.WordLog, mem.LineSizeLog} {
		step := mem.Address(1) << unitLog
		r := rand.New(rand.NewSource(int64(unitLog)))
		lo, hi := testRegion()
		for trial := 0; trial < rangeTrials; trial++ {
			fast := meta.NewBitTable(arena(), unitLog)
			slow := meta.NewBitTable(arena(), unitLog)
			for a := lo; a < hi; a += step {
				if r.Intn(2) == 0 {
					fast.Set(a)
					slow.Set(a)
				}
			}
			s, e := randRange(r, lo, hi, step)
			if trial%2 == 0 {
				fast.SetRange(s, e)
				for a := s; a < e; a += step {
					slow.Set(a)
				}
			} else {
				fast.ClearRange(s, e)
				for a := s; a < e; a += step {
					slow.Clear(a)
				}
			}
			for a := lo; a < hi; a += step {
				if f, w := fast.Get(a), slow.Get(a); f != w {
					t.Fatalf("unitLog %d trial %d range [%#x,%#x): unit %#x got %v want %v",
						unitLog, trial, s, e, a, f, w)
				}
			}
		}
	}
}

func TestFieldLogClearRangeMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	lo, hi := testRegion()
	for trial := 0; trial < rangeTrials; trial++ {
		fast := meta.NewFieldLogTable(arena())
		slow := meta.NewFieldLogTable(arena())
		for a := lo; a < hi; a += mem.WordSize {
			switch r.Intn(3) {
			case 0: // Logged (the zero state)
			case 1:
				fast.SetUnlogged(a)
				slow.SetUnlogged(a)
			case 2: // Busy, reachable only through the log protocol
				fast.SetUnlogged(a)
				fast.TryBeginLog(a)
				slow.SetUnlogged(a)
				slow.TryBeginLog(a)
			}
		}
		s, e := randRange(r, lo, hi, mem.WordSize)
		fast.ClearRange(s, e)
		for a := s; a < e; a += mem.WordSize {
			slow.SetLogged(a)
		}
		for a := lo; a < hi; a += mem.WordSize {
			if f, w := fast.Get(a), slow.Get(a); f != w {
				t.Fatalf("trial %d range [%#x,%#x): field %#x got %d want %d",
					trial, s, e, a, f, w)
			}
		}
	}
}

func TestRCFreeLineBitsMatchesLineFree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rc := meta.NewRCTable(arena())
	lo, _ := testRegion()
	firstLine := lo.Line()
	for trial := 0; trial < 50; trial++ {
		for l := 0; l < mem.LinesPerBlock; l++ {
			start := mem.LineStart(firstLine + l)
			rc.ClearRange(start, start+mem.LineSize)
			if r.Intn(2) == 0 {
				rc.Set(start+mem.Address(r.Intn(16))*mem.Granule, uint32(1+r.Intn(3)))
			}
		}
		var bm [mem.LinesPerBlock / 32]uint32
		rc.FreeLineBits(firstLine, &bm)
		for l := 0; l < mem.LinesPerBlock; l++ {
			got := bm[l/32]&(1<<uint(l%32)) != 0
			if want := rc.LineFree(firstLine + l); got != want {
				t.Fatalf("trial %d line %d: bitmap %v, LineFree %v", trial, l, got, want)
			}
		}
	}
}

// BenchmarkClearWords times the stopped-world clear of a granule bit
// table the size the benchmark heaps use (16 MB arena: 32 Ki words).
func BenchmarkClearWords(b *testing.B) {
	t := meta.NewBitTable(mem.NewArena(16<<20), mem.GranuleLog)
	b.SetBytes(int64(t.Words()) * 4)
	for b.Loop() {
		t.ClearWords(0, t.Words())
	}
}
