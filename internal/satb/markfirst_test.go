package satb_test

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"lxr/internal/gcwork"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/satb"
)

// staleHeap is a randomized heap as a trace meets it mid-flight: counted
// objects, uncounted (young) ones, and what stale queue entries and torn
// slots point at — granules inside objects, free granules, unaligned and
// out-of-arena values. Some granules of every kind already carry a mark:
// objects the concurrent trace reached earlier, and granules whose
// marked occupant was reclaimed and whose memory now holds something
// else, where a Filter that decodes the header says no.
type staleHeap struct {
	om    obj.Model
	rc    *meta.RCTable
	marks *meta.BitTable
	seeds []obj.Ref
}

func newStaleHeap(seed int64) *staleHeap {
	r := rand.New(rand.NewSource(seed))
	a := mem.NewArena(256 << 10)
	h := &staleHeap{
		om:    obj.Model{A: a},
		rc:    meta.NewRCTable(a),
		marks: meta.NewBitTable(a, mem.GranuleLog),
	}
	lo, hi := mem.BlockStart(1), mem.BlockStart(a.Blocks())
	var starts, others []obj.Ref // object headers; in-arena granules that are not one
	for p := lo; ; {
		if r.Intn(4) == 0 { // a reclaimed gap: zero words, or what an old payload left there
			for n := 1 + r.Intn(6); n > 0 && p < hi; n-- {
				if r.Intn(2) == 0 {
					a.Store(p, r.Uint64())
				}
				others = append(others, p)
				p += mem.Granule
			}
		}
		refs := r.Intn(5)
		size := obj.SizeFor(refs, r.Intn(6)*mem.WordSize)
		if p+mem.Address(size) > hi {
			break
		}
		h.om.WriteHeader(p, obj.Layout{NumRefs: refs, Size: size})
		if r.Intn(5) != 0 { // mature: the trace follows it
			h.rc.Set(p, 1+uint32(r.Intn(meta.RCMax)))
		}
		starts = append(starts, p)
		for g := p + mem.Granule; g < p+mem.Address(size); g += mem.Granule {
			others = append(others, g)
		}
		p += mem.Address(size)
	}
	pick := func() obj.Ref {
		switch r.Intn(20) {
		case 0:
			return mem.Nil
		case 1, 2, 3:
			return others[r.Intn(len(others))]
		case 4:
			return starts[r.Intn(len(starts))] + mem.Address(1+r.Intn(mem.Granule-1)) // unaligned
		case 5:
			return mem.Address(a.Size()) + mem.Address(r.Intn(1<<20))*mem.Granule // past the arena
		}
		return starts[r.Intn(len(starts))]
	}
	for _, s := range starts {
		for i := 0; i < h.om.NumRefs(s); i++ {
			h.om.StoreSlot(s, i, pick())
		}
	}
	for i := 0; i < len(starts)/8; i++ {
		h.marks.Set(starts[r.Intn(len(starts))])
		h.marks.Set(others[r.Intn(len(others))])
	}
	for i := 0; i < 64; i++ {
		h.seeds = append(h.seeds, pick())
	}
	return h
}

// filter is LXR's, less the straddle table: in the arena and aligned,
// counted, and a believable header.
func (h *staleHeap) filter(r obj.Ref) bool {
	if r.IsNil() || r&(mem.Granule-1) != 0 || !h.om.A.Contains(r) || h.rc.Get(r) == 0 {
		return false
	}
	s := h.om.Size(r)
	return s >= obj.MinSize && s <= obj.LargeThreshold
}

type edge struct{ slot, val mem.Address }

func sortEdges(es []edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].slot != es[j].slot {
			return es[i].slot < es[j].slot
		}
		return es[i].val < es[j].val
	})
}

// closureFilterFirst is the visit order the tracer had before the early
// mark test: Filter, then TrySet, then scan.
func (h *staleHeap) closureFilterFirst() (edges []edge) {
	stack := append([]obj.Ref(nil), h.seeds...)
	for len(stack) > 0 {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ref.IsNil() || !h.filter(ref) || !h.marks.TrySet(ref) {
			continue
		}
		h.om.EachSlot(ref, func(_ int, slot mem.Address, v obj.Ref) {
			if !v.IsNil() {
				edges = append(edges, edge{slot, v})
				stack = append(stack, v)
			}
		})
	}
	return edges
}

// TestEarlyMarkTestIsResultIdentical runs the same stale heap through
// the old visit order and through the tracer — owner-thread steps and
// the pause's parallel drain — and asks for the same mark table and the
// same OnEdge calls.
func TestEarlyMarkTestIsResultIdentical(t *testing.T) {
	pool := gcwork.NewPool(2)
	defer pool.Stop()
	var edges int
	var filtered atomic.Int64
	for seed := int64(0); seed < 24; seed++ {
		ref := newStaleHeap(seed)
		want := ref.closureFilterFirst()
		sortEdges(want)
		for _, parallel := range []bool{false, true} {
			h := newStaleHeap(seed)
			var mu sync.Mutex // the parallel drain calls the hooks from two workers
			var got []edge
			tr := &satb.Tracer{
				OM:    h.om,
				Marks: h.marks,
				Filter: func(r obj.Ref) bool {
					if h.om.A.Contains(r) && h.marks.Get(r) {
						t.Errorf("seed %d: the Filter ran on %x, which is already marked", seed, uint64(r))
					}
					ok := h.filter(r)
					if !ok {
						filtered.Add(1)
					}
					return ok
				},
				OnEdge: func(slot mem.Address, v obj.Ref) {
					mu.Lock()
					got = append(got, edge{slot, v})
					mu.Unlock()
				},
			}
			tr.Begin()
			tr.Seed(h.seeds)
			if parallel {
				tr.DrainParallel(pool)
			} else {
				for !tr.Step(7) {
				}
			}
			sortEdges(got)
			if len(got) != len(want) {
				t.Fatalf("seed %d parallel=%v: %d OnEdge calls, the old order made %d", seed, parallel, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d parallel=%v: OnEdge call %d is %+v, the old order's %+v", seed, parallel, i, got[i], want[i])
				}
			}
			for w := 0; w < h.marks.Words(); w++ {
				if g, x := h.marks.Word(w), ref.marks.Word(w); g != x {
					t.Fatalf("seed %d parallel=%v: mark word %d = %#08x, the old order's %#08x", seed, parallel, w, g, x)
				}
			}
			edges += len(got)
		}
	}
	if edges == 0 || filtered.Load() == 0 {
		t.Fatalf("the heaps exercised nothing: %d edges, %d filtered refs", edges, filtered.Load())
	}
}
