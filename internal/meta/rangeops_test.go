package meta_test

import (
	"math/rand"
	"sync"
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
			fast.ClearRange(s, e)
			for a := s; a < e; a += step {
				slow.Clear(a)
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
			slow.FinishLog(a)
		}
		for a := lo; a < hi; a += mem.WordSize {
			if f, w := fast.Get(a), slow.Get(a); f != w {
				t.Fatalf("trial %d range [%#x,%#x): field %#x got %d want %d",
					trial, s, e, a, f, w)
			}
		}
	}
}

// logArena sizes the field-log tables of armWordsCase; a table reads
// nothing of its arena but the size.
var logArena = arena()

// logWordBytes is the heap one field-log table word covers: sixteen
// fields.
const logWordBytes = 16 * mem.WordSize

// armWordsCase fills a window of fields with a seeded mix of the three
// log states, arms [s, e) once with ArmWords and once field by field in
// the model — SetUnlogged on every field of every 128-byte word the range
// overlaps — and asks for the same state in every field of the window:
// each word the range touches all Unlogged, Busy fields and neighbours
// outside the range included (SetUnlogged forces the state), every
// other word untouched.
func armWordsCase(t *testing.T, seed int64, s, e mem.Address) {
	t.Helper()
	lo, hi := testRegion()
	r := rand.New(rand.NewSource(seed))
	fast := meta.NewFieldLogTable(logArena)
	slow := meta.NewFieldLogTable(logArena)
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
	fast.ArmWords(s, e)
	for a := lo; a < hi; a += mem.WordSize {
		if w := a &^ (logWordBytes - 1); s < e && w < e && w+logWordBytes > s {
			slow.SetUnlogged(a)
		}
	}
	for a := lo; a < hi; a += mem.WordSize {
		if f, w := fast.Get(a), slow.Get(a); f != w {
			t.Fatalf("seed %d range [%#x,%#x): field %#x got %d want %d", seed, s, e, a, f, w)
		}
	}
}

func TestFieldLogArmWordsMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	lo, hi := testRegion()
	for trial := 0; trial < rangeTrials; trial++ {
		s, e := randRange(r, lo, hi, mem.WordSize)
		if trial%4 == 0 {
			// An object's reference slots: a short run that starts
			// anywhere in a 16-field word and often straddles into the
			// next one.
			e = s + mem.Address(r.Intn(40))*mem.WordSize
			if e > hi {
				e = hi
			}
		}
		armWordsCase(t, int64(trial), s, e)
	}
	armWordsCase(t, 1, lo, lo)                         // empty
	armWordsCase(t, 2, lo+8, lo+16)                    // one field
	armWordsCase(t, 3, lo+15*8, lo+17*8)               // two fields across a word boundary
	armWordsCase(t, 4, lo, lo+16*mem.WordSize)         // exactly one word
	armWordsCase(t, 5, lo+3, lo+3+5*mem.WordSize)      // unaligned start
	armWordsCase(t, 6, hi-16*mem.WordSize, hi)         // the window's last word
	armWordsCase(t, 7, lo+8*mem.WordSize, lo+40*8+4*8) // partial, whole, partial
	armWordsCase(t, 8, lo+16*mem.WordSize, lo+48*8)    // whole words only
	armWordsCase(t, 9, lo+16*8, lo+16*8+1)             // one byte: its whole word
}

// ArmWord is ArmWords over the one field at slot.
func TestFieldLogArmWordIsOneWord(t *testing.T) {
	lo, _ := testRegion()
	for _, slot := range []mem.Address{lo, lo + 8, lo + 15*8, lo + 16*8, lo + 100*8} {
		fast := meta.NewFieldLogTable(logArena)
		slow := meta.NewFieldLogTable(logArena)
		fast.ArmWord(slot)
		slow.ArmWords(slot, slot+mem.WordSize)
		for a := lo; a < lo+mem.LineSize; a += mem.WordSize {
			if f, w := fast.Get(a), slow.Get(a); f != w {
				t.Fatalf("ArmWord(%#x): field %#x got %d, ArmWords gives %d", slot, a, f, w)
			}
		}
	}
}

func FuzzArmWords(f *testing.F) {
	f.Add(int64(1), uint32(0), uint32(0))
	f.Add(int64(2), uint32(15), uint32(2))
	f.Add(int64(3), uint32(7), uint32(64))
	f.Add(int64(4), uint32(1<<13-1), uint32(1))
	f.Add(int64(5), uint32(100), uint32(1<<13))
	lo, hi := testRegion()
	f.Fuzz(func(t *testing.T, seed int64, firstField, fields uint32) {
		s := lo + mem.Address(firstField)*mem.WordSize + mem.Address(seed&7) // any alignment
		if s >= hi {
			s = lo + (s-lo)%(hi-lo)
		}
		e := s + mem.Address(fields)*mem.WordSize
		if e > hi || e < s {
			e = hi
		}
		armWordsCase(t, seed, s, e)
	})
}

// TestArmWordsRacingWorkers has two goroutines arm overlapping words at
// once, as two pause workers do when their promoted objects or logged
// slots share a word. Under -race it pins the fallback's atomic store:
// plain stores there are a reported race. Either way the words converge
// on all Unlogged and the words neither range touches stay Logged.
func TestArmWordsRacingWorkers(t *testing.T) {
	lo, _ := testRegion()
	fl := meta.NewFieldLogTable(logArena)
	const fields = 512
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := lo + mem.Address(g*fields/4)*mem.WordSize // ranges overlap by three quarters
			for rep := 0; rep < 50; rep++ {
				for i := 0; i < fields; i++ {
					fl.ArmWords(base+mem.Address(i)*mem.WordSize, base+mem.Address(i+3)*mem.WordSize)
					fl.ArmWord(base + mem.Address(i)*mem.WordSize)
				}
			}
		}(g)
	}
	wg.Wait()
	end := lo + mem.Address(fields/4+fields+2)*mem.WordSize // the last range's end
	for a := lo; a < lo+2*mem.BlockSize; a += mem.WordSize {
		want := meta.LogLogged
		if a < end.AlignUp(logWordBytes) {
			want = meta.LogUnlogged
		}
		if got := fl.Get(a); got != want {
			t.Fatalf("field %#x: %d, want %d", a, got, want)
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
			if want := rc.LineWord(firstLine+l) == 0; got != want {
				t.Fatalf("trial %d line %d: bitmap %v, line word zero %v", trial, l, got, want)
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
