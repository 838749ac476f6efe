package satb_test

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lxr/internal/gcwork"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/satb"
)

// markedHeap is a heap as a closing mark finds it: n objects with 0-3
// reference slots each, of which the share marked already carries a
// mark from the concurrent trace, and seed segments that name mostly
// marked objects. The unmarked seeds have children, some seeds repeat,
// and one is nil.
type markedHeap struct {
	om    obj.Model
	marks *meta.BitTable
	objs  []obj.Ref
	segs  [][]mem.Address
}

func newMarkedHeap(seed int64, n, seeds int, marked float64) *markedHeap {
	r := rand.New(rand.NewSource(seed))
	a := mem.NewArena(n * 128) // room for n objects of at most 96 bytes, none across a block end
	h := &markedHeap{om: obj.Model{A: a}, marks: meta.NewBitTable(a, mem.GranuleLog)}
	for p := mem.BlockStart(1); len(h.objs) < n; {
		refs := r.Intn(4)
		size := obj.SizeFor(refs, r.Intn(8)*mem.WordSize)
		if (p + mem.Address(size) - 1).Block() != p.Block() {
			p = mem.BlockStart(p.Block() + 1) // objects never span blocks
		}
		h.om.WriteHeader(p, obj.Layout{NumRefs: refs, Size: size})
		h.objs = append(h.objs, p)
		p += mem.Address(size)
	}
	var unmarked []obj.Ref
	for _, o := range h.objs {
		for i := 0; i < h.om.NumRefs(o); i++ {
			h.om.StoreSlot(o, i, h.objs[r.Intn(n)])
		}
		if r.Float64() < marked {
			h.marks.Set(o)
		} else if h.om.NumRefs(o) > 0 {
			unmarked = append(unmarked, o)
		}
	}
	var all []mem.Address
	for range seeds {
		all = append(all, h.objs[r.Intn(n)])
	}
	for i := 0; i < len(unmarked) && i < seeds/50; i++ {
		all[r.Intn(seeds)] = unmarked[i]
		all[r.Intn(seeds)] = unmarked[i] // a duplicate
	}
	all[r.Intn(seeds)] = mem.Nil
	for len(all) > 0 {
		k := min(len(all), 1+r.Intn(1024))
		h.segs = append(h.segs, all[:k:k])
		all = all[k:]
	}
	return h
}

func (h *markedHeap) markCount() (c int) {
	for w := 0; w < h.marks.Words(); w++ {
		c += bits.OnesCount32(h.marks.Word(w))
	}
	return c
}

// TestDrainParallelLeavesSeedsIntact: DrainParallel drops the nil and
// already-marked seeds in one serial pass before it fans out. It must
// reach the closure Step reaches, call OnMark once per object it marks,
// and never write into a seed segment: LXR's pause seeds its decrement
// segments zero-copy and copies them into the decrement batch after the
// closing mark.
func TestDrainParallelLeavesSeedsIntact(t *testing.T) {
	pool := gcwork.NewPool(2)
	defer pool.Stop()
	fresh := 0
	for seed := int64(0); seed < 8; seed++ {
		h := newMarkedHeap(seed, 4000, 3000, 0.97)
		twin := newMarkedHeap(seed, 4000, 3000, 0.97)
		before := h.markCount()
		want := make([][]mem.Address, len(h.segs))
		for i, s := range h.segs {
			want[i] = slices.Clone(s)
		}

		var mu sync.Mutex
		onMark := map[obj.Ref]int{}
		tr := &satb.Tracer{OM: h.om, Marks: h.marks, OnMark: func(r obj.Ref) {
			mu.Lock()
			onMark[r]++
			mu.Unlock()
		}}
		tr.Begin()
		for _, s := range h.segs {
			tr.Seed(s)
		}
		tr.DrainParallel(pool)

		ref := &satb.Tracer{OM: twin.om, Marks: twin.marks}
		ref.Begin()
		for _, s := range twin.segs {
			ref.Seed(slices.Clone(s))
		}
		for !ref.Step(64) {
		}

		for w := 0; w < h.marks.Words(); w++ {
			if g, x := h.marks.Word(w), twin.marks.Word(w); g != x {
				t.Fatalf("seed %d: mark word %d = %#08x, Step's closure has %#08x", seed, w, g, x)
			}
		}
		newly := h.markCount() - before
		if len(onMark) != newly {
			t.Fatalf("seed %d: OnMark saw %d objects, %d were newly marked", seed, len(onMark), newly)
		}
		for r, c := range onMark {
			if c != 1 {
				t.Fatalf("seed %d: OnMark ran %d times for %x", seed, c, uint64(r))
			}
		}
		for i := range want {
			for j := range want[i] {
				if h.segs[i][j] != want[i][j] {
					t.Fatalf("seed %d: seed segment %d's item %d was written: %x, was %x", seed, i, j, uint64(h.segs[i][j]), uint64(want[i][j]))
				}
			}
		}
		if tr.Pending() {
			t.Fatalf("seed %d: work left after the drain", seed)
		}
		fresh += newly
	}
	if fresh == 0 {
		t.Fatal("no seed was unmarked: the heaps exercised nothing")
	}
}

// BenchmarkDrainParallelMarkedSeeds reports a closing mark's cost per
// seed on a 2-worker pool: 32768 seeds over 100000 objects, 99.9 % of
// them naming an object already marked, as on batch-mutate (99.86 %).
// Each iteration restores the marks with the timer stopped. It uses
// nothing newer than DrainParallel, so the parent's column comes from
// dropping this file into the parent tree.
func BenchmarkDrainParallelMarkedSeeds(b *testing.B) {
	const seeds = 32768
	h := newMarkedHeap(1, 100000, seeds, 0.999)
	var marked []obj.Ref
	for _, o := range h.objs {
		if h.marks.Get(o) {
			marked = append(marked, o)
		}
	}
	pool := gcwork.NewPool(2)
	defer pool.Stop()
	tr := &satb.Tracer{OM: h.om, Marks: h.marks}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h.marks.ClearAll()
		for _, o := range marked {
			h.marks.Set(o)
		}
		tr.Begin()
		for _, s := range h.segs {
			tr.Seed(s)
		}
		b.StartTimer()
		tr.DrainParallel(pool)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*seeds), "ns/seed")
}
