// Package immix implements the Immix hierarchical heap structure shared
// by LXR and the baseline collectors: a table of 32 KB blocks divided
// into 256 B lines, global free and recycled block lists and the heap
// budget under one lock, thread-local bump-pointer allocators with line
// recycling and dynamic overflow (§3.1), and a large object space.
package immix

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"lxr/internal/mem"
)

// Block states (low nibble of the per-block state word).
const (
	StateUntracked uint32 = iota // block 0 / outside any space
	StateFree                    // on the free list
	StateReserved                // held by a thread-local allocator
	StateFull                    // retired, contains objects
	StateRecycled                // partially free, on the recycled list
	StateLargeHead               // first block of a large object
	StateLargeBody               // continuation block of a large object
)

// Block flags (upper bits of the state word).
const (
	// FlagDefrag marks a block selected into an evacuation set.
	FlagDefrag uint32 = 1 << 8
	// FlagYoung marks a block that was completely clean when handed to
	// an allocator in the current RC epoch; every object in it is young,
	// making it a target for all-young evacuation (§3.3.2).
	FlagYoung uint32 = 1 << 9
	// FlagDirty marks a block allocated into since the last collection;
	// these are the blocks the RC pause sweeps.
	FlagDirty uint32 = 1 << 10
	// FlagEvacuating marks blocks whose objects are being copied out by
	// a concurrent collector (Shenandoah/ZGC collection sets).
	FlagEvacuating uint32 = 1 << 11

	stateMask = 0xf
	flagsMask = ^uint32(stateMask)
)

// KindShift positions the 8-bit space/kind tag baselines use (e.g. G1
// region kind, semispace half).
const KindShift = 16

// BlockTable tracks the state of every block in an arena plus the global
// free and recycled lists. The lists, and every reservation against the
// heap budget, are made under one mutex; a mutator takes it once per
// 32 KB block (the paper's lock-free block allocators, §3.5, are in
// DESIGN.md, "Tried and removed").
type BlockTable struct {
	Arena *mem.Arena

	state []uint32 // per-block state word
	live  []int32  // per-block live-byte scratch for liveness analyses

	// mu guards free and recy, and the large object space's runs and
	// objects. The budget check and the counter it reserves against —
	// inUse for the main space, los.inUse for large objects — are made
	// under it together, so the two spaces never overshoot the budget
	// between them.
	mu   sync.Mutex
	free []int32 // clean blocks, a LIFO stack: the last released first
	recy []int32 // partially free blocks, a LIFO stack

	// Written under mu, read lock-free: occupancy feeds pacing triggers
	// on paths that must not block.
	freeCount atomic.Int32 // blocks on the free list
	recyCount atomic.Int32
	inUse     atomic.Int32 // blocks held by allocators, full, or large

	// budgetBlocks is the collector's heap budget in blocks; the arena
	// may be larger (it also holds the large object range).
	budgetBlocks int

	mainBlocks int // blocks [1, mainBlocks] belong to the main space

	// Dirty-block tracking: which blocks received allocation since the
	// last collection, maintained lock-free so NoteDirty on the
	// allocation slow path never serializes a thousand mutators behind
	// one mutex. One bit per block; each 32-bit word is an independent
	// shard (CAS to set, Swap to drain), so noters of far-apart blocks
	// never touch the same cache line.
	dirtyBits []uint32

	los *LargeSpace
}

// Config controls heap construction.
type Config struct {
	// HeapBytes is the collector's heap budget (the "heap size" of the
	// paper's experiments). Main-space blocks plus large-object blocks
	// in use never exceed it.
	HeapBytes int
	// LOSBytes is the capacity reserved in the arena for the large
	// object range. It defaults to HeapBytes (budget still shared).
	LOSBytes int
}

// NewBlockTable builds an arena and its block table.
func NewBlockTable(cfg Config) *BlockTable {
	if cfg.HeapBytes < 4*mem.BlockSize {
		cfg.HeapBytes = 4 * mem.BlockSize
	}
	if cfg.LOSBytes == 0 {
		cfg.LOSBytes = cfg.HeapBytes
	}
	mainBytes := (cfg.HeapBytes + mem.BlockSize - 1) / mem.BlockSize * mem.BlockSize
	arena := mem.NewArena(mainBytes + cfg.LOSBytes)
	n := arena.Blocks()
	bt := &BlockTable{
		Arena:        arena,
		state:        make([]uint32, n),
		live:         make([]int32, n),
		budgetBlocks: cfg.HeapBytes / mem.BlockSize,
		mainBlocks:   mainBytes / mem.BlockSize,
		dirtyBits:    make([]uint32, (n+31)/32),
	}
	bt.free = make([]int32, 0, bt.mainBlocks)
	bt.recy = make([]int32, 0, bt.mainBlocks)
	// Blocks run [1, mainBlocks] for the main space; the rest is LOS.
	for i := bt.mainBlocks; i >= 1; i-- {
		bt.state[i] = StateFree
		bt.free = append(bt.free, int32(i))
	}
	bt.freeCount.Store(int32(bt.mainBlocks))
	bt.los = newLargeSpace(bt, bt.mainBlocks+1, n-1)
	return bt
}

// LOS returns the large object space.
func (bt *BlockTable) LOS() *LargeSpace { return bt.los }

// Blocks returns the number of main-space blocks.
func (bt *BlockTable) Blocks() int { return bt.mainBlocks }

// BudgetBlocks returns the heap budget in blocks.
func (bt *BlockTable) BudgetBlocks() int { return bt.budgetBlocks }

// --- state word accessors --------------------------------------------------

// State returns the state nibble of block idx.
func (bt *BlockTable) State(idx int) uint32 {
	return atomic.LoadUint32(&bt.state[idx]) & stateMask
}

// Word returns the whole state word of block idx.
func (bt *BlockTable) Word(idx int) uint32 { return atomic.LoadUint32(&bt.state[idx]) }

// SetState replaces the state nibble of block idx, preserving flags.
func (bt *BlockTable) SetState(idx int, s uint32) {
	for {
		old := atomic.LoadUint32(&bt.state[idx])
		if atomic.CompareAndSwapUint32(&bt.state[idx], old, old&flagsMask|s) {
			return
		}
	}
}

// SetFlag sets flag bits on block idx.
func (bt *BlockTable) SetFlag(idx int, f uint32) {
	for {
		old := atomic.LoadUint32(&bt.state[idx])
		if old&f == f || atomic.CompareAndSwapUint32(&bt.state[idx], old, old|f) {
			return
		}
	}
}

// ClearFlag clears flag bits on block idx.
func (bt *BlockTable) ClearFlag(idx int, f uint32) {
	for {
		old := atomic.LoadUint32(&bt.state[idx])
		if old&f == 0 || atomic.CompareAndSwapUint32(&bt.state[idx], old, old&^f) {
			return
		}
	}
}

// HasFlag reports whether block idx has all bits of f set.
func (bt *BlockTable) HasFlag(idx int, f uint32) bool {
	return atomic.LoadUint32(&bt.state[idx])&f == f
}

// SetKind stores an 8-bit space/kind tag for block idx.
func (bt *BlockTable) SetKind(idx int, kind uint8) {
	for {
		old := atomic.LoadUint32(&bt.state[idx])
		new := old&^uint32(0xff<<KindShift) | uint32(kind)<<KindShift
		if atomic.CompareAndSwapUint32(&bt.state[idx], old, new) {
			return
		}
	}
}

// Kind returns the 8-bit space/kind tag of block idx.
func (bt *BlockTable) Kind(idx int) uint8 {
	return uint8(atomic.LoadUint32(&bt.state[idx]) >> KindShift)
}

// AddLive accumulates live bytes for block idx and returns the new total.
func (bt *BlockTable) AddLive(idx int, bytes int32) int32 {
	return atomic.AddInt32(&bt.live[idx], bytes)
}

// Live returns the live-byte figure of block idx.
func (bt *BlockTable) Live(idx int) int32 { return atomic.LoadInt32(&bt.live[idx]) }

// ClearLiveAll zeroes the live-byte scratch for all blocks.
func (bt *BlockTable) ClearLiveAll() {
	bt.ClearLiveRange(0, len(bt.live))
}

// ClearLiveRange zeroes the live-byte scratch for blocks [lo, hi), so
// pause code can split the full clear across gcwork.ParallelFor workers
// (partition over [0, Arena.Blocks())) instead of walking every block's
// live word serially at each cycle start. Stopped world only, plain
// stores: see meta.BitTable.ClearWords.
func (bt *BlockTable) ClearLiveRange(lo, hi int) { clear(bt.live[lo:hi]) }

// --- block lists -------------------------------------------------------------

// pop takes the top of a block stack; the caller holds mu.
func pop(list *[]int32) (int, bool) {
	n := len(*list)
	if n == 0 {
		return 0, false
	}
	idx := (*list)[n-1]
	*list = (*list)[:n-1]
	return int(idx), true
}

// FreeBlocks returns the number of clean blocks available.
func (bt *BlockTable) FreeBlocks() int { return int(bt.freeCount.Load()) }

// RecycledBlocks returns the number of partially free blocks available.
func (bt *BlockTable) RecycledBlocks() int { return int(bt.recyCount.Load()) }

// InUseBlocks returns main-space blocks currently holding objects or
// reserved by allocators.
func (bt *BlockTable) InUseBlocks() int { return int(bt.inUse.Load()) }

// BudgetRemaining returns how many more blocks the heap budget allows,
// counting both main-space blocks in use and large-object blocks.
// Lock-free; under mu it is exact.
func (bt *BlockTable) BudgetRemaining() int {
	used := int(bt.inUse.Load()) + bt.los.BlocksInUse()
	return bt.budgetBlocks - used
}

// AcquireClean hands out a completely free block. Returns false when the
// heap budget or the free list is exhausted.
func (bt *BlockTable) AcquireClean() (int, bool) { return bt.acquireClean(true) }

// AcquireCleanNoBudget hands out a free block ignoring the heap budget
// (bounded by the arena's physical main-space size). Evacuation uses it
// as a to-space reserve: a collection must not fail for lack of copy
// space while physically free blocks exist — the space drains right
// back when the evacuated blocks are freed at the end of the pause.
func (bt *BlockTable) AcquireCleanNoBudget() (int, bool) { return bt.acquireClean(false) }

func (bt *BlockTable) acquireClean(budget bool) (int, bool) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	if budget && bt.BudgetRemaining() <= 0 {
		return 0, false
	}
	idx, ok := pop(&bt.free)
	if !ok {
		return 0, false
	}
	bt.SetState(idx, StateReserved)
	bt.freeCount.Add(-1)
	bt.inUse.Add(1)
	return idx, true
}

// AcquireRecycled hands out a partially free block from the recycled
// list. Recycled blocks are already counted against the heap budget
// (they hold live objects), so reusing their free lines is always
// allowed — this is what lets Immix absorb allocation without consuming
// clean blocks.
//
// A listed block is always StateRecycled, so there is nothing to skip:
// it leaves that state only here or in RebuildFromSweep (which empties
// the list), both under mu. The collector's other writers act only on
// blocks they find StateFull (maybeReleaseAfterDecs, sweepYoung) or
// StateFull/StateReserved (the baselines' frees), and a block is put on
// the list from StateFull, so it is never listed twice. Any other state
// here is a broken invariant.
func (bt *BlockTable) AcquireRecycled() (int, bool) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	idx, ok := pop(&bt.recy)
	if !ok {
		return 0, false
	}
	bt.recyCount.Add(-1)
	if s := bt.State(idx); s != StateRecycled {
		panic(fmt.Sprintf("immix: block %d on the recycled list in state %d", idx, s))
	}
	bt.SetState(idx, StateReserved)
	return idx, true
}

// ReleaseFree returns a block to the free list. The caller must have
// removed all objects from it.
func (bt *BlockTable) ReleaseFree(idx int) { bt.Release([]int32{int32(idx)}, nil) }

// ReleaseRecycled puts a partially free block on the recycled list. The
// block still holds live objects and remains counted as in use.
func (bt *BlockTable) ReleaseRecycled(idx int) { bt.Release(nil, []int32{int32(idx)}) }

// Release does ReleaseFree for each block of free and ReleaseRecycled for
// each of recycled under one lock (none if both are empty), so a sweep
// worker locks once per batch, not per block. It retains neither slice.
func (bt *BlockTable) Release(free, recycled []int32) {
	if len(free)+len(recycled) == 0 {
		return
	}
	bt.mu.Lock()
	for _, idx := range free {
		bt.ClearFlag(int(idx), FlagYoung|FlagDirty|FlagDefrag|FlagEvacuating)
		bt.SetState(int(idx), StateFree)
	}
	for _, idx := range recycled {
		bt.ClearFlag(int(idx), FlagYoung|FlagDirty)
		bt.SetState(int(idx), StateRecycled)
	}
	bt.free = append(bt.free, free...)
	bt.recy = append(bt.recy, recycled...)
	bt.inUse.Add(-int32(len(free)))
	bt.freeCount.Add(int32(len(free)))
	bt.recyCount.Add(int32(len(recycled)))
	bt.mu.Unlock()
}

// Retire marks a block full (still counted in use).
func (bt *BlockTable) Retire(idx int) {
	bt.SetState(idx, StateFull)
}

// --- dirty block tracking ----------------------------------------------------

// NoteDirty records that a block received new allocation since the last
// collection, so the next RC pause must sweep it. It is lock-free: a
// load of the block's dirty bit dedups with no write at all (the common
// case, since a block is noted once per span but allocated into many
// times), and only the first noter per epoch CASes the bit in. Each
// 32-bit bitmap word is an independent shard — contention is bounded to
// the handful of mutators racing to first-note one of the same 32
// neighbouring blocks, never a global point.
func (bt *BlockTable) NoteDirty(idx int) {
	bt.SetFlag(idx, FlagDirty)
	w, m := idx/32, uint32(1)<<(idx%32)
	for {
		old := atomic.LoadUint32(&bt.dirtyBits[w])
		if old&m != 0 {
			return // already queued for the next sweep
		}
		if atomic.CompareAndSwapUint32(&bt.dirtyBits[w], old, old|m) {
			return
		}
	}
}

// TakeDirty returns and clears the set of dirty blocks by swap-draining
// the bitmap one word at a time. Each Swap is the linearization point
// for its 32 blocks: every NoteDirty that completed before the Swap is
// captured by this take, a note that lands after it is deferred whole
// to the next pause, and no bit is ever observed by two takers. The
// leading plain load skips empty words without taking the cache line
// exclusive, so a take over a mostly-clean heap is a read-only scan.
//
// The result comes out sorted ascending for free — bits are emitted in
// word-then-bit order — which the sweep's classify pass wants anyway:
// it reads each block's RC-table words, so ascending order walks the
// table sequentially instead of striding across it.
func (bt *BlockTable) TakeDirty() []int {
	var out []int
	for w := range bt.dirtyBits {
		if atomic.LoadUint32(&bt.dirtyBits[w]) == 0 {
			continue
		}
		set := atomic.SwapUint32(&bt.dirtyBits[w], 0)
		for set != 0 {
			out = append(out, w*32+bits.TrailingZeros32(set))
			set &= set - 1
		}
	}
	return out
}

// BlockClass is the sweep classification used by RebuildFromSweep.
type BlockClass int

const (
	// ClassFree marks a block with no live data.
	ClassFree BlockClass = iota
	// ClassPartial marks a block with some free lines.
	ClassPartial
	// ClassFull marks a fully live block.
	ClassFull
)

// RebuildFromSweep rebuilds the free and recycled lists from scratch
// after a full stop-the-world sweep: classify is invoked for every
// main-space block and returns its post-collection class. Must be
// called with the world stopped and all allocators flushed.
func (bt *BlockTable) RebuildFromSweep(classify func(idx int) BlockClass) {
	for i := 1; i <= bt.mainBlocks; i++ {
		bt.ClearFlag(i, FlagYoung|FlagDirty|FlagDefrag|FlagEvacuating)
		switch classify(i) {
		case ClassFree:
			bt.SetState(i, StateFree)
		case ClassPartial:
			bt.SetState(i, StateRecycled)
		default:
			bt.SetState(i, StateFull)
		}
	}
	// The lists, from the states just set: classify runs outside mu.
	bt.mu.Lock()
	defer bt.mu.Unlock()
	bt.free, bt.recy = bt.free[:0], bt.recy[:0]
	for i := 1; i <= bt.mainBlocks; i++ {
		switch bt.State(i) {
		case StateFree:
			bt.free = append(bt.free, int32(i))
		case StateRecycled:
			bt.recy = append(bt.recy, int32(i))
		}
	}
	bt.freeCount.Store(int32(len(bt.free)))
	bt.recyCount.Store(int32(len(bt.recy)))
	bt.inUse.Store(int32(bt.mainBlocks - len(bt.free)))
	bt.TakeDirty() // world is stopped: discard exactly the queued set
}

// AllBlocks invokes f for every main-space block index.
func (bt *BlockTable) AllBlocks(f func(idx int)) {
	for i := 1; i <= bt.mainBlocks; i++ {
		f(i)
	}
}

// String summarises occupancy for debugging.
func (bt *BlockTable) String() string {
	return fmt.Sprintf("blocks{free=%d recycled=%d inUse=%d los=%d budget=%d}",
		bt.FreeBlocks(), bt.RecycledBlocks(), bt.InUseBlocks(), bt.los.BlocksInUse(), bt.budgetBlocks)
}
