package main

import (
	"encoding/binary"
	"hash/fnv"
)

// rng is splitmix64. The benchmark owns its generator so that a script
// depends on -seed alone: Mutator.Rand is seeded from the mutator ID and
// is never called.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// scriptTxns is the length of one client's cyclic script. 1024
// transactions of up to 256 operations average the size and survival
// draws to well under 1 %, and keep the script (a few MB) out of the way
// of the heap under test.
const scriptTxns = 1024

// Allocation flags.
const (
	flagSurvive = 1 << iota // retained in table slot allocOp.slot
	flagLink                // chained to the previous allocation
)

// allocOp is one scripted allocation.
type allocOp struct {
	payload uint32 // payload bytes
	slot    uint32 // global table slot, when flagSurvive
	flags   uint8
}

// storeOp is one scripted pointer store between retained objects:
// table[src].ref[1+field] = table[dst].
type storeOp struct {
	src, dst uint32
	field    uint8
}

// script is one client's cyclic operation script: transaction t runs
// allocs[t*spec.allocs:][:spec.allocs] then stores[t*spec.stores:][:spec.stores].
type script struct {
	allocs []allocOp
	stores []storeOp
	// prefill holds the payload size of each table slot's first
	// occupant, in the order slots are filled (see prefillOrder).
	prefill []uint32
}

// payloadOf draws a payload size from the spec's size classes.
func (s *spec) payloadOf(r *rng) uint32 {
	w := r.intn(s.sizeWeight)
	for _, c := range s.sizes {
		if w < c.weight {
			return uint32(c.lo + 8*r.intn((c.hi-c.lo)/8+1))
		}
		w -= c.weight
	}
	panic("unreachable: size weights")
}

// slotOf draws the table slot a survivor replaces: a table class by
// weight, then a uniform slot inside it, so an object's lifetime is
// geometric with mean (class slots ÷ class survivor rate).
func (s *spec) slotOf(r *rng) uint32 {
	w := r.intn(s.tableWeight)
	base := 0
	for _, t := range s.tables {
		if w < t.weight {
			return uint32(base + r.intn(t.slots))
		}
		w -= t.weight
		base += t.slots
	}
	panic("unreachable: table weights")
}

// buildScript generates client c's script for the given seed.
func buildScript(s *spec, seed uint64, c int) *script {
	r := rng(seed*0x9e3779b97f4a7c15 ^ uint64(c+1)*0xd1342543de82ef95 ^ fnvString(s.name))
	sc := &script{
		allocs:  make([]allocOp, scriptTxns*s.allocs),
		stores:  make([]storeOp, scriptTxns*s.stores),
		prefill: make([]uint32, s.slots()),
	}
	for i := range sc.allocs {
		op := allocOp{payload: s.payloadOf(&r)}
		if i%chainSegment != 0 {
			op.flags |= flagLink
		}
		if r.intn(1000) < s.survivePermille {
			op.flags |= flagSurvive
			op.slot = s.slotOf(&r)
		}
		sc.allocs[i] = op
	}
	n := s.slots()
	for i := range sc.stores {
		sc.stores[i] = storeOp{
			src:   uint32(r.intn(n)),
			dst:   uint32(r.intn(n)),
			field: uint8(r.intn(s.refs - 1)),
		}
	}
	for i := range sc.prefill {
		sc.prefill[i] = s.payloadOf(&r)
	}
	return sc
}

// prefillOrder returns the table slots in the order prefill allocates
// them: the classes interleaved in proportion to their sizes, so that
// objects of different lifetimes start out as neighbours in the heap,
// as they are in steady state.
func (s *spec) prefillOrder() []uint32 {
	order := make([]uint32, 0, s.slots())
	done := make([]int, len(s.tables))
	for len(order) < cap(order) {
		// The class furthest behind its share goes next.
		best, bestLag := -1, 0.0
		base, bestBase := 0, 0
		for i, t := range s.tables {
			if lag := 1 - float64(done[i])/float64(t.slots); lag > bestLag {
				best, bestLag, bestBase = i, lag, base
			}
			base += t.slots
		}
		order = append(order, uint32(bestBase+done[best]))
		done[best]++
	}
	return order
}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// hash folds every scripted operation into 48 bits (exact in a JSON
// number), so two runs can show they executed the same inputs.
func scriptHash(scripts []*script) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, sc := range scripts {
		for _, a := range sc.allocs {
			binary.LittleEndian.PutUint32(b[0:], a.payload)
			binary.LittleEndian.PutUint32(b[4:], a.slot)
			b[8] = a.flags
			h.Write(b[:9])
		}
		for _, st := range sc.stores {
			binary.LittleEndian.PutUint32(b[0:], st.src)
			binary.LittleEndian.PutUint32(b[4:], st.dst)
			b[8] = st.field
			h.Write(b[:9])
		}
		for _, p := range sc.prefill {
			binary.LittleEndian.PutUint32(b[0:], p)
			h.Write(b[:4])
		}
	}
	return h.Sum64() & (1<<48 - 1)
}
