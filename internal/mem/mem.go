// Package mem provides the simulated heap memory substrate: a contiguous
// word-addressed arena carved into Immix-sized blocks and lines.
//
// All garbage-collected "objects" in this repository live inside an Arena
// and are referred to by an Address, a byte offset from the arena base.
// Address 0 is reserved as the nil reference: block 0 of every arena is
// never handed to an allocator.
//
// The arena is backed by a []uint64 so that reference slots, object
// headers, and forwarding words can be accessed with the atomic operations
// required by concurrent collectors (SATB barriers, concurrent evacuation).
package mem

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Heap geometry. These mirror the constants used by Immix and LXR
// (Blackburn & McKinley 2008; Zhao, Blackburn & McKinley 2022): 32 KB
// blocks composed of 256 B lines, with a 16 B allocation granule.
const (
	// WordLog is log2 of the machine word size in bytes.
	WordLog = 3
	// WordSize is the machine word size in bytes.
	WordSize = 1 << WordLog

	// BlockSizeLog is log2 of the Immix block size.
	BlockSizeLog = 15
	// BlockSize is the Immix block size in bytes (32 KB).
	BlockSize = 1 << BlockSizeLog

	// LineSizeLog is log2 of the Immix line size.
	LineSizeLog = 8
	// LineSize is the Immix line size in bytes (256 B).
	LineSize = 1 << LineSizeLog

	// LinesPerBlock is the number of lines in a block (128).
	LinesPerBlock = BlockSize / LineSize

	// GranuleLog is log2 of the allocation granule.
	GranuleLog = 4
	// Granule is the allocation granule in bytes: the minimum object
	// size and alignment. The reference-count table keeps one 2-bit
	// count per granule.
	Granule = 1 << GranuleLog

	// GranulesPerLine is the number of RC granules per line (16).
	GranulesPerLine = LineSize / Granule
	// GranulesPerBlock is the number of RC granules per block (2048).
	GranulesPerBlock = BlockSize / Granule

	// WordsPerBlock is the number of 8-byte words in a block.
	WordsPerBlock = BlockSize / WordSize
	// WordsPerLine is the number of 8-byte words in a line.
	WordsPerLine = LineSize / WordSize
)

// Address is a byte offset into an Arena. The zero Address is the nil
// reference.
type Address uint64

// Nil is the null reference.
const Nil Address = 0

// IsNil reports whether a is the nil reference.
func (a Address) IsNil() bool { return a == 0 }

// Block returns the index of the block containing a.
func (a Address) Block() int { return int(a >> BlockSizeLog) }

// Line returns the global line index (across the whole arena) of the line
// containing a.
func (a Address) Line() int { return int(a >> LineSizeLog) }

// Granule returns the global granule index of the granule containing a.
func (a Address) Granule() int { return int(a >> GranuleLog) }

// AlignUp rounds a up to the given power-of-two alignment.
func (a Address) AlignUp(align int) Address {
	return (a + Address(align) - 1) &^ (Address(align) - 1)
}

// BlockStart returns the address of the first byte of block idx.
func BlockStart(idx int) Address { return Address(idx) << BlockSizeLog }

// LineStart returns the address of the first byte of global line idx.
func LineStart(idx int) Address { return Address(idx) << LineSizeLog }

// Arena is a contiguous simulated heap. It is safe for concurrent use:
// word accesses use sync/atomic so that mutator threads and collector
// threads may race on reference slots exactly the way a real runtime
// does. Two families of stores are cheaper than that by contract:
// StoreRelease (a mutator's own stores; a plain word store on amd64)
// and ZeroPrivate (ranges nobody else can name; a memclr).
type Arena struct {
	words  []uint64
	size   Address // size in bytes
	blocks int
}

// NewArena creates an arena with at least size bytes of usable heap.
// The size is rounded up to a whole number of blocks, plus one extra
// reserved block so that Address 0 is never a valid object address.
// On Linux an arena of 2 MB or more is advised into huge pages
// (huge_linux.go).
func NewArena(size int) *Arena {
	if size <= 0 {
		panic(fmt.Sprintf("mem: invalid arena size %d", size))
	}
	blocks := (size + BlockSize - 1) / BlockSize
	blocks++ // reserve block 0 for the nil address
	return &Arena{
		words:  newWords(blocks * WordsPerBlock),
		size:   Address(blocks) << BlockSizeLog,
		blocks: blocks,
	}
}

// Size returns the arena size in bytes, including the reserved block.
func (a *Arena) Size() int { return int(a.size) }

// Blocks returns the total number of blocks, including reserved block 0.
func (a *Arena) Blocks() int { return a.blocks }

// Contains reports whether addr lies within the arena (and is non-nil).
func (a *Arena) Contains(addr Address) bool {
	return addr > 0 && addr < a.size
}

// Load reads the word at addr. addr must be word aligned.
func (a *Arena) Load(addr Address) uint64 {
	return atomic.LoadUint64(&a.words[addr>>WordLog])
}

// Store writes the word at addr. addr must be word aligned.
func (a *Arena) Store(addr Address, v uint64) {
	atomic.StoreUint64(&a.words[addr>>WordLog], v)
}

// StoreRelease writes the word at addr with release ordering but, unlike
// Store (an XCHGQ on amd64), no trailing fence: everything the calling
// thread wrote before it is visible to whoever sees v, but a later load
// by the caller may run ahead of it. It is for the stores a mutator
// makes on its own behalf — a barriered slot write after its log
// capture, the header and payload of an object it has not yet published
// — where no later load of that thread is half of a store→load
// handshake (DESIGN.md, "Stores that need no fence", argues each call
// site). Collector stores, forwarding words, copies and zeroing keep
// Store. Racing readers must use Load and tolerate the old value.
func (a *Arena) StoreRelease(addr Address, v uint64) {
	a.storeRelease(int(addr>>WordLog), v)
}

// CAS performs a compare-and-swap on the word at addr.
func (a *Arena) CAS(addr Address, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&a.words[addr>>WordLog], old, new)
}

// LoadRef reads a reference slot at addr.
func (a *Arena) LoadRef(addr Address) Address {
	return Address(a.Load(addr))
}

// StoreRef writes a reference slot at addr.
func (a *Arena) StoreRef(addr Address, v Address) {
	a.Store(addr, uint64(v))
}

// Prefetch hints that the word at addr is about to be read. It is a
// hint and nothing else: no load the memory model or the race detector
// can see, no fault, no effect on any result, so a caller may issue it
// for an address it has not validated (one outside the arena is
// ignored).
func (a *Arena) Prefetch(addr Address) {
	if addr < a.size {
		prefetch(unsafe.Pointer(&a.words[addr>>WordLog]))
	}
}

// ZeroRange clears the bytes in [start, end), which must be word aligned.
// This is the bulk-zeroing path used when blocks or line spans are handed
// to allocators. Each word is cleared atomically: a span can be zeroed
// by an evacuation worker's allocator while another worker atomically
// probes a plausible-but-stale reference that happens to land inside it
// (forwarding-word loads on values read through stale dirty/remset
// slots), and mixing plain and atomic access to the same word is a data
// race even when the probed value is discarded.
func (a *Arena) ZeroRange(start, end Address) {
	for w := start >> WordLog; w < end>>WordLog; w++ {
		atomic.StoreUint64(&a.words[w], 0)
	}
}

// ZeroPrivate clears the bytes in [start, end) with plain (non-atomic)
// stores, compiling to a bulk memclr. It is for ranges that are private
// to the caller — freshly acquired clean blocks a thread-local allocator
// has reserved but not yet published any object in. The only concurrent
// accesses that can land in such a range are defensive probes of stale
// references into the block's previous life (forwarding-word loads
// reached through plausibleRef on old dirty/remset/decrement values);
// every such probe's result is re-validated by the prober (saneRef,
// RC-zero and state checks that tolerate any torn value), so the races
// are value-benign — but they are still races by the memory model, so
// race-instrumented builds fall back to word-atomic stores (see
// zero_race.go) and stay detector-clean by construction. Shared ranges
// — recycled line spans inside published blocks — must keep using the
// word-atomic ZeroRange.
func (a *Arena) ZeroPrivate(start, end Address) {
	if start >= end {
		return
	}
	a.zeroPrivate(int(start>>WordLog), int(end-start)/WordSize)
}

// Copy copies n bytes from src to dst. Both must be word aligned. It is
// used for object evacuation, where both sides can be touched
// concurrently by other collector workers through word-atomic accesses:
// a parallel evacuation may update a dirty/remset slot in place while
// the object containing the slot is being copied, and forwarding-word
// probes of plausible-but-stale references can land inside a freshly
// allocated destination. The copy protocol converges either way (the
// new copy's slots are rescanned and every value resolves through its
// forwarding word), but the accesses themselves must be word-atomic —
// a plain memmove against concurrent atomics is a data race.
func (a *Arena) Copy(dst, src Address, n int) {
	dw := int(dst >> WordLog)
	sw := int(src >> WordLog)
	for i := 0; i < n/WordSize; i++ {
		atomic.StoreUint64(&a.words[dw+i], atomic.LoadUint64(&a.words[sw+i]))
	}
}
