package mem_test

import (
	"testing"
	"testing/quick"

	"lxr/internal/mem"
)

func TestGeometryConstants(t *testing.T) {
	if mem.BlockSize != 32<<10 {
		t.Fatalf("block size %d", mem.BlockSize)
	}
	if mem.LineSize != 256 {
		t.Fatalf("line size %d", mem.LineSize)
	}
	if mem.LinesPerBlock != 128 {
		t.Fatalf("lines/block %d", mem.LinesPerBlock)
	}
	if mem.GranulesPerBlock != 2048 {
		t.Fatalf("granules/block %d", mem.GranulesPerBlock)
	}
	if mem.GranulesPerLine != 16 {
		t.Fatalf("granules/line %d", mem.GranulesPerLine)
	}
}

func TestArenaReservesBlockZero(t *testing.T) {
	a := mem.NewArena(1 << 20)
	if a.Contains(0) {
		t.Fatal("nil address must not be Contained")
	}
	if !a.Contains(mem.BlockStart(1)) {
		t.Fatal("first usable block must be Contained")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	a := mem.NewArena(1 << 20)
	addr := mem.BlockStart(1)
	a.Store(addr, 0xdeadbeefcafe)
	if got := a.Load(addr); got != 0xdeadbeefcafe {
		t.Fatalf("got %x", got)
	}
	if !a.CAS(addr, 0xdeadbeefcafe, 7) {
		t.Fatal("CAS should succeed")
	}
	if a.CAS(addr, 0xdeadbeefcafe, 9) {
		t.Fatal("CAS should fail")
	}
	if got := a.Load(addr); got != 7 {
		t.Fatalf("got %d", got)
	}
}

func TestZeroAndCopy(t *testing.T) {
	a := mem.NewArena(1 << 20)
	src := mem.BlockStart(1)
	dst := mem.BlockStart(2)
	for i := 0; i < 8; i++ {
		a.Store(src+mem.Address(i*8), uint64(i+1))
	}
	a.Copy(dst, src, 64)
	for i := 0; i < 8; i++ {
		if got := a.Load(dst + mem.Address(i*8)); got != uint64(i+1) {
			t.Fatalf("copy word %d = %d", i, got)
		}
	}
	a.ZeroRange(src, src+64)
	for i := 0; i < 8; i++ {
		if a.Load(src+mem.Address(i*8)) != 0 {
			t.Fatal("zero failed")
		}
	}
	if a.Load(dst) != 1 {
		t.Fatal("zero ran past its range")
	}
}

func TestAddressArithmeticProperties(t *testing.T) {
	// Block/line/granule indices must nest consistently.
	f := func(raw uint32) bool {
		a := mem.Address(raw)
		if a.Line()/mem.LinesPerBlock != a.Block() {
			return false
		}
		if a.Granule()/mem.GranulesPerBlock != a.Block() {
			return false
		}
		if a.Granule()/mem.GranulesPerLine != a.Line() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlignUp(t *testing.T) {
	f := func(raw uint32, shift uint8) bool {
		align := 1 << (shift % 12)
		a := mem.Address(raw).AlignUp(align)
		return a%mem.Address(align) == 0 && a >= mem.Address(raw) && a < mem.Address(raw)+mem.Address(align)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockLineStarts(t *testing.T) {
	for i := 0; i < 100; i++ {
		if mem.BlockStart(i).Block() != i {
			t.Fatalf("BlockStart(%d) inconsistent", i)
		}
		if mem.LineStart(i).Line() != i {
			t.Fatalf("LineStart(%d) inconsistent", i)
		}
	}
}

// Prefetch is a hint: any address is acceptable and nothing changes.
func TestPrefetchTouchesNothing(t *testing.T) {
	a := mem.NewArena(2 * mem.BlockSize)
	a.Store(mem.BlockStart(1), 42)
	for _, addr := range []mem.Address{0, 3, mem.BlockStart(1), mem.BlockStart(1) + 5, mem.Address(a.Size()) - 1,
		mem.Address(a.Size()), mem.Address(a.Size()) + 8, 1 << 63, ^mem.Address(0)} {
		a.Prefetch(addr)
	}
	if got := a.Load(mem.BlockStart(1)); got != 42 {
		t.Fatalf("word reads %d after prefetches", got)
	}
}
