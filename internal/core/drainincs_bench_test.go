package core

import (
	"math/rand"
	"testing"

	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
	"lxr/internal/vm"
)

// This file uses nothing newer than drainIncrements' and the driver's
// drainDecs' signatures, so the parent's column of a before/after table
// comes from dropping it into the parent tree unchanged (EXPERIMENTS.md,
// "Metadata before memory").

// incFields is how many logged fields an incHeap seeds the drain with.
const incFields = 60000

// incHeap is a 16 MB heap laid out as a pause finds it after a
// batch-mutate epoch: 40000 mature 96-byte objects (3 reference slots)
// spread over 9 MB among dead fillers, 60% of their counts stuck at 3
// and the rest at 1; 20000 young objects of youngSize bytes (uncounted,
// each pointing at one other), in all-young blocks when evac is set and
// otherwise in blocks the allocator does not call young, so that each is
// promoted in place as batch-mutate's survivors are; and 60000 logged
// fields of mature objects rewired at random, of which the given share
// now point at young objects. It returns the mature objects too, in
// address order.
func incHeap(youngShare float64, evac bool, youngSize int) (*LXR, *vm.VM, [][]mem.Address, []obj.Ref) {
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
		if r.Float64() < 0.6 {
			p.rc.Set(a, 3)
		} else {
			p.rc.Set(a, 1)
		}
		mature[i] = a
		al.Alloc(16 * (1 + r.Intn(16))) // a dead object's gap
	}
	al.Flush()
	for _, idx := range p.bt.TakeDirty() { // mature blocks are neither young nor dirty
		p.bt.ClearFlag(idx, immix.FlagYoung|immix.FlagDirty)
	}
	young := make([]obj.Ref, youngs)
	for i := range young {
		a, _ := al.Alloc(youngSize)
		p.om.WriteHeader(a, obj.Layout{NumRefs: 1, Size: youngSize})
		young[i] = a
	}
	al.Flush()
	if !evac {
		for _, y := range young {
			p.bt.ClearFlag(y.Block(), immix.FlagYoung)
		}
	}
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
	return p, v, append(segs, seg), mature
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
// field on a cold heap, for fields that point at counted objects (most
// of them stuck), at young objects promoted in place or evacuated on
// their first increment (each with its own field scanned in turn), and
// at batch-mutate's mix: about 60% of increments on stuck counts, 23%
// counted CASes and 17% promotions in place. Young objects are 64 bytes,
// so none crosses a 256-byte line, except in straddle-target: 80 bytes,
// back to back, so that about a quarter reach into the next line and
// their promotion writes its cover entry. A drain consumes its heap —
// young objects are promoted, counts rise — so every iteration builds a
// fresh one with the timer stopped: run it with a fixed count
// (-benchtime 20x), and at -cpu 1 for the spread.
func BenchmarkDrainIncrements(b *testing.B) {
	for _, bc := range []struct {
		name  string
		young float64
		evac  bool
		size  int // young object bytes
	}{
		{"mature-target", 0, false, 64},
		{"promote-target", 1, false, 64},
		{"straddle-target", 1, false, 80},
		{"evac-target", 1, true, 64},
		{"batch-mutate", 0.17, false, 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, v, segs, _ := incHeap(bc.young, bc.evac, bc.size)
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

// decN is how many decrements a decHeap seeds the driver's drain with.
const decN = 30000

// decHeap is incHeap's heap readied for a decrement batch: its first
// 10000 mature objects are stuck, and the other 30000, in random order,
// are the batch's targets. Each target is stuck, at 2, or at 1 with one
// stuck child, in the given shares.
func decHeap(stuck, two float64) (*LXR, *vm.VM, []mem.Address) {
	p, v, _, mature := incHeap(0, false, 64)
	r := rand.New(rand.NewSource(2))
	children, targets := mature[:len(mature)-decN], mature[len(mature)-decN:]
	for _, c := range children {
		p.rc.Set(c, 3)
	}
	decs := make([]mem.Address, 0, decN)
	for _, i := range r.Perm(decN) {
		x := targets[i]
		switch f := r.Float64(); {
		case f < stuck:
			p.rc.Set(x, 3)
		case f < stuck+two:
			p.rc.Set(x, 2)
		default:
			p.rc.Set(x, 1)
			for s := 1; s < 3; s++ {
				p.om.StoreSlot(x, s, 0)
			}
			p.om.StoreSlot(x, 0, children[r.Intn(len(children))])
		}
		decs = append(decs, x)
	}
	return p, v, decs
}

// BenchmarkDrainDecrements reports the concurrent driver's decrement
// drain's cost per seeded decrement on a cold heap, in drainDecs quanta:
// on stuck counts, on counts of 2, on deaths (each with one child, whose
// stuck count takes the recursive decrement), and on the two listed
// workloads' mixes as counted on 10 s runs — batch-mutate's decrements
// read 89.5 % stuck counts, 4.5 % counts of 2 and 6 % last counts;
// serve-aging's are all but 0.1 % deaths. A death consumes its target,
// so every iteration builds a fresh heap with the timer stopped: run it
// with a fixed count (-benchtime 20x), and at -cpu 1 for the spread.
func BenchmarkDrainDecrements(b *testing.B) {
	for _, bc := range []struct {
		name       string
		stuck, two float64
	}{
		{"stuck", 1, 0},
		{"count-2", 0, 1},
		{"death", 0, 0},
		{"batch-mutate", 0.895, 0.045},
		{"serve-aging", 0, 0.001},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, v, decs := decHeap(bc.stuck, bc.two)
				p.conc.quiesce()
				p.conc.pendingDecs = decs
				benchSink += evict()
				b.StartTimer()
				for p.conc.hasPendingDecs() {
					p.conc.drainDecs()
				}
				b.StopTimer()
				p.conc.release()
				v.Shutdown()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*decN), "ns/dec")
		})
	}
}
