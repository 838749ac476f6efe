package immix

import (
	"sync/atomic"

	"lxr/internal/mem"
)

// LargeSpace manages objects larger than half a block (16 KB) in a
// dedicated block range at the top of the arena, per §3.1 ("objects
// larger than half a block in size are delegated to a large object
// allocator"). Allocation is first-fit over free runs under the block
// table's mutex, which also guards the main space's lists, so the two
// spaces reserve against the heap budget in one place; the hot path of
// the system is the bump allocator, so contention here is negligible,
// as it is in MMTk's LOS.
type LargeSpace struct {
	bt    *BlockTable
	first int // first LOS block index
	last  int // last LOS block index

	// OnAlloc, when set, is invoked with the address range of every
	// fresh allocation so plans can reset side metadata (field-log
	// states, mark bits) left behind by a previous occupant.
	OnAlloc func(start, end mem.Address)

	// Guarded by bt.mu.
	runs    []run               // free runs, kept sorted by start
	objects map[mem.Address]int // object start -> blocks occupied

	// inUse counts blocks occupied by live large objects. Written only
	// under bt.mu, but read lock-free: occupancy feeds pacing triggers
	// evaluated on GC safepoint paths and on the conctrl controller
	// goroutine (with the controller lock held), which must stay
	// non-blocking.
	inUse atomic.Int32
}

type run struct{ start, n int }

func newLargeSpace(bt *BlockTable, first, last int) *LargeSpace {
	ls := &LargeSpace{bt: bt, first: first, last: last, objects: make(map[mem.Address]int)}
	if last >= first {
		ls.runs = []run{{first, last - first + 1}}
	}
	return ls
}

// BlocksInUse returns the number of LOS blocks holding live objects.
// Lock-free: safe from trigger-check paths that must not block.
func (ls *LargeSpace) BlocksInUse() int {
	return int(ls.inUse.Load())
}

// Alloc reserves enough contiguous blocks for size bytes and returns the
// address of the first byte. It fails when either the LOS range or the
// heap budget is exhausted.
func (ls *LargeSpace) Alloc(size int) (mem.Address, bool) {
	blocks := (size + mem.BlockSize - 1) / mem.BlockSize
	addr, ok := ls.reserve(blocks)
	if !ok {
		return mem.Nil, false
	}
	// Whole blocks just reserved and named by nobody, not even objects,
	// so Each cannot yield them yet: the private-block case (DESIGN.md,
	// "Private-block bulk zeroing").
	end := addr + mem.Address(blocks*mem.BlockSize)
	ls.bt.Arena.ZeroPrivate(addr, end)
	if ls.OnAlloc != nil {
		ls.OnAlloc(addr, end)
	}
	ls.bt.mu.Lock()
	ls.objects[addr] = blocks
	ls.bt.mu.Unlock()
	return addr, true
}

// reserve takes the first free run of at least blocks blocks, checking
// and charging the heap budget under bt.mu. The object is listed only
// once Alloc has initialised it.
func (ls *LargeSpace) reserve(blocks int) (mem.Address, bool) {
	ls.bt.mu.Lock()
	defer ls.bt.mu.Unlock()
	if ls.bt.BudgetRemaining() < blocks {
		return mem.Nil, false
	}
	for i, r := range ls.runs {
		if r.n >= blocks {
			if r.n == blocks {
				ls.runs = append(ls.runs[:i], ls.runs[i+1:]...)
			} else {
				ls.runs[i] = run{r.start + blocks, r.n - blocks}
			}
			ls.inUse.Add(int32(blocks))
			addr := mem.BlockStart(r.start)
			ls.bt.SetState(r.start, StateLargeHead)
			for b := r.start + 1; b < r.start+blocks; b++ {
				ls.bt.SetState(b, StateLargeBody)
			}
			return addr, true
		}
	}
	return mem.Nil, false
}

// Free releases the blocks of the large object starting at addr.
func (ls *LargeSpace) Free(addr mem.Address) {
	ls.bt.mu.Lock()
	defer ls.bt.mu.Unlock()
	blocks, ok := ls.objects[addr]
	if !ok {
		return
	}
	delete(ls.objects, addr)
	start := addr.Block()
	for b := start; b < start+blocks; b++ {
		ls.bt.SetState(b, StateFree)
	}
	ls.inUse.Add(-int32(blocks))
	ls.insertRun(run{start, blocks})
}

// Contains reports whether addr lies in the LOS block range.
func (ls *LargeSpace) Contains(addr mem.Address) bool {
	b := addr.Block()
	return b >= ls.first && b <= ls.last
}

// Each invokes f for the start address of every live large object.
// The snapshot is taken under the lock; f runs outside it.
func (ls *LargeSpace) Each(f func(addr mem.Address)) {
	ls.bt.mu.Lock()
	addrs := make([]mem.Address, 0, len(ls.objects))
	for a := range ls.objects {
		addrs = append(addrs, a)
	}
	ls.bt.mu.Unlock()
	for _, a := range addrs {
		f(a)
	}
}

// Count returns the number of live large objects.
func (ls *LargeSpace) Count() int {
	ls.bt.mu.Lock()
	defer ls.bt.mu.Unlock()
	return len(ls.objects)
}

// insertRun adds a free run, coalescing with neighbours.
func (ls *LargeSpace) insertRun(r run) {
	// Find insertion point (runs sorted by start).
	i := 0
	for i < len(ls.runs) && ls.runs[i].start < r.start {
		i++
	}
	ls.runs = append(ls.runs, run{})
	copy(ls.runs[i+1:], ls.runs[i:])
	ls.runs[i] = r
	// Coalesce with next.
	if i+1 < len(ls.runs) && ls.runs[i].start+ls.runs[i].n == ls.runs[i+1].start {
		ls.runs[i].n += ls.runs[i+1].n
		ls.runs = append(ls.runs[:i+1], ls.runs[i+2:]...)
	}
	// Coalesce with previous.
	if i > 0 && ls.runs[i-1].start+ls.runs[i-1].n == ls.runs[i].start {
		ls.runs[i-1].n += ls.runs[i].n
		ls.runs = append(ls.runs[:i], ls.runs[i+1:]...)
	}
}
