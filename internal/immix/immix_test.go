package immix_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"lxr/internal/immix"
	"lxr/internal/mem"
)

func table(t *testing.T, heapMB int) *immix.BlockTable {
	t.Helper()
	return immix.NewBlockTable(immix.Config{HeapBytes: heapMB << 20})
}

func TestAcquireReleaseRoundTrip(t *testing.T) {
	bt := table(t, 4)
	free0 := bt.FreeBlocks()
	idx, ok := bt.AcquireClean()
	if !ok {
		t.Fatal("acquire failed")
	}
	if bt.State(idx) != immix.StateReserved {
		t.Fatal("acquired block not reserved")
	}
	if bt.FreeBlocks() != free0-1 || bt.InUseBlocks() != 1 {
		t.Fatal("counters wrong after acquire")
	}
	bt.Retire(idx)
	if bt.State(idx) != immix.StateFull {
		t.Fatal("retire failed")
	}
	bt.ReleaseFree(idx)
	if bt.State(idx) != immix.StateFree || bt.FreeBlocks() != free0 || bt.InUseBlocks() != 0 {
		t.Fatal("release failed")
	}
}

func TestRecycledListValidatesState(t *testing.T) {
	bt := table(t, 4)
	idx, _ := bt.AcquireClean()
	bt.Retire(idx)
	bt.ReleaseRecycled(idx)
	// Corrupt: free it behind the list's back. No writer does this (see
	// AcquireRecycled), so the pop must refuse loudly, not hand it out
	// or skip it.
	bt.SetState(idx, immix.StateFree)
	defer func() {
		if recover() == nil {
			t.Fatal("listed block in state Free did not panic")
		}
	}()
	bt.AcquireRecycled()
}

// TestReleaseBatchMatchesOneByOne: Release leaves the table as the same
// ReleaseFree and ReleaseRecycled calls one block at a time do — states,
// flags, counters, and the order the lists hand the blocks back — and
// as each call's contract says.
func TestReleaseBatchMatchesOneByOne(t *testing.T) {
	one, batch := table(t, 4), table(t, 4)
	free0 := batch.FreeBlocks()
	var free, recycled []int32
	var held []int
	for i := 0; i < 24; i++ {
		a, _ := one.AcquireClean()
		b, _ := batch.AcquireClean()
		if a != b {
			t.Fatalf("fresh tables handed out blocks %d and %d", a, b)
		}
		for _, bt := range []*immix.BlockTable{one, batch} {
			bt.Retire(a)
			bt.SetFlag(a, immix.FlagYoung|immix.FlagDirty|immix.FlagDefrag)
		}
		held = append(held, a)
	}
	for i, a := range held {
		switch i % 3 {
		case 0:
			one.ReleaseFree(a)
			free = append(free, int32(a))
		case 1:
			one.ReleaseRecycled(a)
			recycled = append(recycled, int32(a))
		}
	}
	batch.Release(nil, nil)
	batch.Release(free, recycled)
	if batch.FreeBlocks() != free0-len(held)+len(free) || batch.RecycledBlocks() != len(recycled) ||
		batch.InUseBlocks() != len(held)-len(free) {
		t.Fatalf("batched counters %s after freeing %d and recycling %d of %d", batch, len(free), len(recycled), len(held))
	}
	all := immix.FlagYoung | immix.FlagDirty | immix.FlagDefrag
	for i, a := range held {
		want, kept := []uint32{immix.StateFree, immix.StateRecycled, immix.StateFull}[i%3],
			[]uint32{0, immix.FlagDefrag, all}[i%3]
		if batch.State(a) != want || batch.Word(a)&all != kept {
			t.Fatalf("block %d: state %d flags %#x, want state %d flags %#x", a, batch.State(a), batch.Word(a)&all, want, kept)
		}
	}
	if one.String() != batch.String() {
		t.Fatalf("one by one %s, batched %s", one, batch)
	}
	for idx := 1; idx <= one.Blocks(); idx++ {
		if one.State(idx) != batch.State(idx) || one.Word(idx) != batch.Word(idx) {
			t.Fatalf("block %d: one by one state %d word %#x, batched state %d word %#x",
				idx, one.State(idx), one.Word(idx), batch.State(idx), batch.Word(idx))
		}
	}
	for {
		a, okA := one.AcquireRecycled()
		b, okB := batch.AcquireRecycled()
		if a != b || okA != okB {
			t.Fatalf("recycled list: one by one (%d, %v), batched (%d, %v)", a, okA, b, okB)
		}
		if !okA {
			break
		}
	}
	for i := range free {
		a, _ := one.AcquireClean()
		b, _ := batch.AcquireClean()
		if a != b {
			t.Fatalf("free list pop %d: one by one %d, batched %d", i, a, b)
		}
	}
}

func TestBudgetEnforced(t *testing.T) {
	bt := table(t, 1) // 32 blocks
	n := 0
	for {
		if _, ok := bt.AcquireClean(); !ok {
			break
		}
		n++
	}
	if n != bt.BudgetBlocks() {
		t.Fatalf("acquired %d blocks, budget %d", n, bt.BudgetBlocks())
	}
}

// TestBudgetSharedWithLOS: the main space and the large object space
// reserve against one budget, so callers of both racing for the last
// blocks never hold more than it between them.
func TestBudgetSharedWithLOS(t *testing.T) {
	bt := immix.NewBlockTable(immix.Config{HeapBytes: 16 * mem.BlockSize})
	los := bt.LOS()
	rounds := 2000
	if raceEnabled {
		rounds = 300 // the parent overshot by round 91 in each recorded run
	}
	for round := 0; round < rounds; round++ {
		var mu sync.Mutex
		var blocks []int
		var large []mem.Address
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				for {
					idx, ok := bt.AcquireClean()
					if !ok {
						return
					}
					mu.Lock()
					blocks = append(blocks, idx)
					mu.Unlock()
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				for {
					a, ok := los.Alloc(mem.BlockSize)
					if !ok {
						return
					}
					mu.Lock()
					large = append(large, a)
					mu.Unlock()
				}
			}()
		}
		close(start)
		wg.Wait()
		if used := bt.InUseBlocks() + los.BlocksInUse(); used > bt.BudgetBlocks() {
			t.Fatalf("round %d: %d blocks in use (%d main, %d large), budget %d",
				round, used, bt.InUseBlocks(), los.BlocksInUse(), bt.BudgetBlocks())
		}
		for _, idx := range blocks {
			bt.ReleaseFree(idx)
		}
		for _, a := range large {
			los.Free(a)
		}
	}
}

func TestParallelAcquireUnique(t *testing.T) {
	bt := table(t, 8)
	var mu sync.Mutex
	seen := map[int]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx, ok := bt.AcquireClean()
				if !ok {
					return
				}
				mu.Lock()
				if seen[idx] {
					mu.Unlock()
					panic("block handed out twice")
				}
				seen[idx] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != bt.BudgetBlocks() {
		t.Fatalf("unique blocks %d != budget %d", len(seen), bt.BudgetBlocks())
	}
}

func TestFlags(t *testing.T) {
	bt := table(t, 2)
	idx, _ := bt.AcquireClean()
	bt.SetFlag(idx, immix.FlagYoung|immix.FlagDirty)
	if !bt.HasFlag(idx, immix.FlagYoung) || !bt.HasFlag(idx, immix.FlagDirty) {
		t.Fatal("flags not set")
	}
	bt.ClearFlag(idx, immix.FlagYoung)
	if bt.HasFlag(idx, immix.FlagYoung) || !bt.HasFlag(idx, immix.FlagDirty) {
		t.Fatal("selective clear failed")
	}
	bt.SetKind(idx, 3)
	if bt.Kind(idx) != 3 {
		t.Fatal("kind lost")
	}
	if bt.State(idx) != immix.StateReserved {
		t.Fatal("state disturbed by flags")
	}
}

func TestDirtyTrackingDedups(t *testing.T) {
	bt := table(t, 2)
	idx, _ := bt.AcquireClean()
	bt.NoteDirty(idx)
	bt.NoteDirty(idx)
	d := bt.TakeDirty()
	if len(d) != 1 || d[0] != idx {
		t.Fatalf("dirty list %v", d)
	}
	if len(bt.TakeDirty()) != 0 {
		t.Fatal("TakeDirty did not clear")
	}
}

// --- allocator -----------------------------------------------------------------

func TestBumpAllocatorBasics(t *testing.T) {
	bt := table(t, 2)
	al := immix.Allocator{BT: bt}
	a, ok := al.Alloc(64)
	if !ok {
		t.Fatal("alloc failed")
	}
	b, _ := al.Alloc(64)
	if b != a+64 {
		t.Fatalf("not bump allocated: %x then %x", a, b)
	}
	if al.Allocated != 128 {
		t.Fatal("accounting wrong")
	}
	al.Flush()
	if bt.State(a.Block()) != immix.StateFull {
		t.Fatal("flush must retire the block")
	}
}

// TestCleanAcquisitionTakesOneBlock: each clean block an allocator
// acquires leaves the pool and the budget one at a time, so no block is
// held privately outside the pool's accounting between pauses.
func TestCleanAcquisitionTakesOneBlock(t *testing.T) {
	bt := table(t, 4) // 128 blocks: budget to spare
	al := immix.Allocator{BT: bt}
	prev := -1
	for i := 0; i < 3; i++ {
		free, budget := bt.FreeBlocks(), bt.BudgetRemaining()
		a, ok := al.Alloc(64) // the current block is full: acquire
		if !ok || a.Block() == prev {
			t.Fatalf("acquisition %d: %x ok=%v, previous block %d", i, a, ok, prev)
		}
		if bt.FreeBlocks() != free-1 || bt.BudgetRemaining() != budget-1 {
			t.Fatalf("acquisition %d: free %d -> %d, budget %d -> %d, want each down by one",
				i, free, bt.FreeBlocks(), budget, bt.BudgetRemaining())
		}
		for n := 64; n < mem.BlockSize; n += 64 {
			if b, _ := al.Alloc(64); b.Block() != a.Block() {
				t.Fatalf("acquisition %d: block %d filled into %d", i, a.Block(), b.Block())
			}
		}
		prev = a.Block()
	}
	al.Flush()
	if bt.InUseBlocks() != 3 || bt.FreeBlocks() != bt.Blocks()-3 {
		t.Fatalf("after flush: %v, want 3 blocks in use", bt)
	}
}

func TestAllocatorZeroesMemory(t *testing.T) {
	bt := table(t, 2)
	al := immix.Allocator{BT: bt}
	a, _ := al.Alloc(128)
	bt.Arena.Store(a, 0xff)
	al.Flush()
	bt.ReleaseFree(a.Block())
	al2 := immix.Allocator{BT: bt}
	for {
		b, ok := al2.Alloc(128)
		if !ok {
			t.Fatal("heap exhausted before reuse")
		}
		if b == a {
			if bt.Arena.Load(b) != 0 {
				t.Fatal("reused memory not zeroed")
			}
			return
		}
	}
}

// TestRecycledLineExactRule: the line map marks every line an object
// occupies, so the allocator reuses the first free line after a used
// one and takes the whole run of free lines as one span.
func TestRecycledLineExactRule(t *testing.T) {
	bt := table(t, 2)
	// Build a line map: lines 0-2 used, 3-7 free, rest used.
	used := map[int]bool{}
	idx, _ := bt.AcquireClean()
	base := idx * mem.LinesPerBlock
	for l := 0; l < mem.LinesPerBlock; l++ {
		used[base+l] = !(l >= 3 && l <= 7)
	}
	bt.Retire(idx)
	bt.ReleaseRecycled(idx)

	var spans [][2]mem.Address
	al := immix.Allocator{BT: bt, Lines: mapLines{used},
		OnSpan: func(s, e mem.Address) { spans = append(spans, [2]mem.Address{s, e}) }}
	a, ok := al.Alloc(64)
	if !ok {
		t.Fatal("alloc failed")
	}
	// The first free line (3) follows a used line and is reused.
	if got := a.Line() % mem.LinesPerBlock; got != 3 {
		t.Fatalf("allocation started at line %d, want 3", got)
	}
	// One span, lines 3-7: five free lines, all bumpable.
	want := [2]mem.Address{mem.LineStart(base + 3), mem.LineStart(base + 8)}
	if len(spans) != 1 || spans[0] != want {
		t.Fatalf("spans %x, want [%x]", spans, want)
	}
	for i := 1; i < 5*mem.LineSize/64; i++ {
		if b, ok := al.Alloc(64); !ok || b.Block() != idx {
			t.Fatalf("alloc %d left the span's block: %x ok=%v", i, b, ok)
		}
	}
}

type mapLines struct{ used map[int]bool }

func (m mapLines) FreeLineBits(firstLine int, bm *[mem.LinesPerBlock / 32]uint32) {
	*bm = [mem.LinesPerBlock / 32]uint32{}
	for l := 0; l < mem.LinesPerBlock; l++ {
		if !m.used[firstLine+l] {
			bm[l>>5] |= 1 << uint(l&31)
		}
	}
}

func TestOverflowAllocationZeroes(t *testing.T) {
	bt := table(t, 2)
	used := map[int]bool{}
	idx, _ := bt.AcquireClean()
	base := idx * mem.LinesPerBlock
	// Two free lines at 10-11 (a 512 B span); everything else used,
	// forcing a medium object to overflow.
	for l := 0; l < mem.LinesPerBlock; l++ {
		used[base+l] = !(l == 10 || l == 11)
	}
	bt.Retire(idx)
	bt.ReleaseRecycled(idx)

	var spans [][2]mem.Address
	al := immix.Allocator{BT: bt, Lines: mapLines{used},
		OnSpan: func(s, e mem.Address) { spans = append(spans, [2]mem.Address{s, e}) }}
	small, ok := al.Alloc(64) // lands in the recycled span
	if !ok || small.Block() != idx {
		t.Fatalf("small alloc misplaced: %x ok=%v", small, ok)
	}
	med, ok := al.Alloc(1024) // does not fit the span: overflow block
	if !ok {
		t.Fatal("medium alloc failed")
	}
	if med.Block() == idx {
		t.Fatal("medium object should have gone to an overflow block")
	}
	if bt.Arena.Load(med) != 0 {
		t.Fatal("overflow memory not zeroed")
	}
	if len(spans) < 2 {
		t.Fatal("overflow span must be reported via OnSpan")
	}
}

// --- large object space -----------------------------------------------------

func TestLOSAllocFree(t *testing.T) {
	bt := table(t, 4)
	los := bt.LOS()
	a, ok := los.Alloc(40 << 10) // 2 blocks
	if !ok {
		t.Fatal("los alloc failed")
	}
	if los.BlocksInUse() != 2 {
		t.Fatalf("blocks in use %d", los.BlocksInUse())
	}
	if !los.Contains(a) {
		t.Fatal("Contains false for live object")
	}
	if los.Count() != 1 {
		t.Fatal("count wrong")
	}
	los.Free(a)
	if los.BlocksInUse() != 0 || los.Count() != 0 {
		t.Fatal("free failed")
	}
}

func TestLOSCoalescesRuns(t *testing.T) {
	bt := table(t, 4)
	los := bt.LOS()
	a, _ := los.Alloc(40 << 10)
	b, _ := los.Alloc(40 << 10)
	c, _ := los.Alloc(40 << 10)
	los.Free(b)
	los.Free(a) // coalesce with b's run
	los.Free(c) // coalesce on the other side
	// After coalescing a large allocation spanning all three must fit.
	if _, ok := los.Alloc(3 * 40 << 10); !ok {
		t.Fatal("runs did not coalesce")
	}
}

func TestLOSRespectsBudget(t *testing.T) {
	bt := table(t, 1) // 32-block budget
	los := bt.LOS()
	total := 0
	for {
		if _, ok := los.Alloc(64 << 10); !ok {
			break
		}
		total += 2
	}
	if total > bt.BudgetBlocks() {
		t.Fatalf("LOS exceeded budget: %d blocks", total)
	}
}

// Each yields only initialised objects: a walker racing an Alloc never
// sees the previous occupant's words in a fresh large object.
func TestLOSEachSeesOnlyZeroedObjects(t *testing.T) {
	bt := table(t, 4)
	los := bt.LOS()
	const size = 4 * mem.BlockSize
	last := mem.Address(size - mem.WordSize)
	rounds := 500
	if raceEnabled {
		rounds = 100
	}
	for round := 0; round < rounds; round++ {
		a, ok := los.Alloc(size)
		if !ok {
			t.Fatal("los alloc failed")
		}
		for off := mem.Address(0); off < size; off += mem.WordSize {
			bt.Arena.Store(a+off, ^uint64(0))
		}
		los.Free(a)
		var done, stale atomic.Bool
		started := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(started)
			for !done.Load() {
				los.Each(func(o mem.Address) {
					if bt.Arena.Load(o) != 0 || bt.Arena.Load(o+last) != 0 {
						stale.Store(true)
					}
				})
			}
		}()
		<-started
		b, ok := los.Alloc(size)
		done.Store(true)
		wg.Wait()
		if !ok {
			t.Fatal("los alloc failed")
		}
		if stale.Load() {
			t.Fatalf("round %d: Each yielded a large object before it was zeroed", round)
		}
		los.Free(b)
	}
}

func TestRebuildFromSweep(t *testing.T) {
	bt := table(t, 1)
	var held []int
	for i := 0; i < 6; i++ {
		idx, _ := bt.AcquireClean()
		bt.Retire(idx)
		held = append(held, idx)
	}
	bt.RebuildFromSweep(func(idx int) immix.BlockClass {
		switch {
		case idx == held[0]:
			return immix.ClassFree
		case idx == held[1]:
			return immix.ClassPartial
		case idx <= held[5] && idx >= held[0]:
			return immix.ClassFull
		default:
			return immix.ClassFree
		}
	})
	if bt.State(held[0]) != immix.StateFree {
		t.Fatal("rebuild free failed")
	}
	if bt.State(held[1]) != immix.StateRecycled {
		t.Fatal("rebuild partial failed")
	}
	if bt.State(held[2]) != immix.StateFull {
		t.Fatal("rebuild full failed")
	}
	if got, ok := bt.AcquireRecycled(); !ok || got != held[1] {
		t.Fatal("rebuilt recycled list broken")
	}
}
