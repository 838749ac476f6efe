package core

import (
	"math/rand"
	"testing"

	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

// This file uses nothing newer than drainIncrements' signature, so the
// parent's column of a before/after table comes from dropping it into
// the parent tree unchanged (EXPERIMENTS.md, "Metadata before memory").

// incFields is how many logged fields an incHeap seeds the drain with.
const incFields = 60000

// incHeap is a 16 MB heap laid out as a pause finds it after a
// batch-mutate-like epoch: 40000 mature 96-byte objects (3 reference
// slots, counted) spread over 3.7 MB, 20000 young 64-byte objects
// (uncounted, in all-young blocks, each pointing at one other), and
// 60000 logged fields of mature objects rewired at random, of which the
// given share now point at young objects.
func incHeap(youngShare float64) (*LXR, *vm.VM, [][]mem.Address) {
	const (
		matures = 40000
		youngs  = 20000
	)
	r := rand.New(rand.NewSource(1))
	p := New(Config{HeapBytes: 16 << 20, GCThreads: 2})
	v := vm.New(p, 4)
	al := &immix.Allocator{BT: p.bt, OnSpan: p.onSpan}
	mature := make([]obj.Ref, matures)
	for i := range mature {
		a, _ := al.Alloc(96)
		p.om.WriteHeader(a, obj.Layout{NumRefs: 3, Size: 96})
		p.rc.Set(a, 1)
		mature[i] = a
	}
	al.Flush()
	for _, idx := range p.bt.TakeDirty() { // mature blocks are neither young nor dirty
		p.bt.ClearFlag(idx, immix.FlagYoung|immix.FlagDirty)
	}
	young := make([]obj.Ref, youngs)
	for i := range young {
		a, _ := al.Alloc(64)
		p.om.WriteHeader(a, obj.Layout{NumRefs: 1, Size: 64})
		young[i] = a
	}
	al.Flush()
	for _, y := range young {
		p.om.StoreSlot(y, 0, young[r.Intn(youngs)])
	}
	var segs [][]mem.Address
	seg := make([]mem.Address, 0, 1024)
	for _, i := range r.Perm(matures * 3)[:incFields] {
		slot := p.om.SlotAddr(mature[i/3], i%3)
		target := mature[r.Intn(matures)]
		if r.Float64() < youngShare {
			target = young[r.Intn(youngs)]
		}
		p.om.A.StoreRef(slot, target)
		if seg = append(seg, slot); len(seg) == cap(seg) {
			segs = append(segs, seg)
			seg = make([]mem.Address, 0, 1024)
		}
	}
	return p, v, append(segs, seg)
}

// evict streams through a buffer larger than the private caches, as the
// mutator's epoch does between two pauses.
var evictBuf = make([]uint64, 32<<20/8)

func evict() (sum uint64) {
	for i := 0; i < len(evictBuf); i += 8 {
		sum += evictBuf[i]
	}
	return sum
}

var benchSink uint64

// BenchmarkDrainIncrements reports the increment drain's cost per seeded
// field on a cold heap, for fields that point at counted objects, at
// young objects (each promoted and evacuated on its first increment,
// with its own field scanned in turn) and at an even mix. A drain
// consumes its heap — young objects are promoted, counts rise — so every
// iteration builds a fresh one with the timer stopped: run it with a
// fixed count (-benchtime 20x).
func BenchmarkDrainIncrements(b *testing.B) {
	for _, bc := range []struct {
		name  string
		young float64
	}{
		{"mature-target", 0},
		{"young-target", 1},
		{"mixed", 0.5},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, v, segs := incHeap(bc.young)
				benchSink += evict()
				b.StartTimer()
				p.drainIncrements(segs)
				b.StopTimer()
				v.Shutdown()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*incFields), "ns/field")
		})
	}
}
