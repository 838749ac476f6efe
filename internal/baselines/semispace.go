package baselines

import (
	"time"

	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// SemiSpace is a classic two-space copying collector: mutators bump-
// allocate into the current half; on exhaustion a stop-the-world
// collection copies the transitive closure of the roots into the other
// half and frees the old one wholesale. It has no barriers and excellent
// allocation locality, which is why the LBO methodology so often selects
// it as the near-ideal baseline (§5.5).
//
// Serial and Parallel are this collector with 1 and N copying threads,
// standing in for OpenJDK's Serial and Parallel collectors (documented
// substitution: both are STW collectors whose cost is dominated by
// copying reachable objects).
type SemiSpace struct {
	base
	half uint8 // current allocation half (0/1)

	trigHalf trace.NameID // "trigger:half-budget", interned in Boot
}

// NewSemiSpace creates the collector. gcThreads=1 yields Serial
// behaviour.
func NewSemiSpace(name string, heapBytes, gcThreads int) *SemiSpace {
	return &SemiSpace{base: newBase(name, heapBytes, gcThreads)}
}

// NewSerial builds the 1-thread variant.
func NewSerial(heapBytes int) *SemiSpace { return NewSemiSpace("Serial", heapBytes, 1) }

// NewParallel builds the N-thread variant.
func NewParallel(heapBytes, gcThreads int) *SemiSpace {
	return NewSemiSpace("Parallel", heapBytes, gcThreads)
}

type ssMut struct{ alloc immix.Allocator }

// Boot implements vm.Plan.
func (p *SemiSpace) Boot(v *vm.VM) {
	p.vm = v
	p.trigHalf = p.events.TriggerName("half-budget")
}

// Shutdown implements vm.Plan: parks and releases the persistent GC
// worker pool.
func (p *SemiSpace) Shutdown() { p.pool.Stop() }

// BindMutator implements vm.Plan.
func (p *SemiSpace) BindMutator(m *vm.Mutator) {
	ms := &ssMut{}
	ms.alloc = immix.Allocator{BT: p.bt, Kind: p.half}
	m.PlanState = ms
}

// UnbindMutator implements vm.Plan.
func (p *SemiSpace) UnbindMutator(m *vm.Mutator) {
	m.PlanState.(*ssMut).alloc.Flush()
	m.PlanState = nil
}

// halfBudget bounds each semispace half to half the heap budget.
func (p *SemiSpace) halfBudget() int { return p.bt.BudgetBlocks() / 2 }

// halfBudgetDue is the semispace trigger: the other half is the copy
// reserve, so a half that has reached its budget must be collected.
func halfBudgetDue(used, half int) bool { return used >= half }

func (p *SemiSpace) tryAlloc(ms *ssMut, l obj.Layout) (obj.Ref, bool) {
	if l.Large {
		return p.allocLarge(l)
	}
	if halfBudgetDue(p.bt.InUseBlocks(), p.halfBudget()) {
		return mem.Nil, false
	}
	return ms.alloc.Alloc(l.Size)
}

// Alloc implements vm.Plan.
func (p *SemiSpace) Alloc(m *vm.Mutator, l obj.Layout) obj.Ref {
	m.Safepoint()
	ms := m.PlanState.(*ssMut)
	r, ok := gcRetry(p.vm, m, 2,
		func() (obj.Ref, bool) { return p.tryAlloc(ms, l) },
		func() {
			// Reported here, once per started collection, not per
			// refused attempt; a collection a failed large allocation
			// forced below the half budget is not this trigger's.
			if used, half := p.bt.InUseBlocks(), p.halfBudget(); halfBudgetDue(used, half) {
				p.events.Trigger(p.trigHalf, float64(used), float64(half))
			}
			p.collectLocked()
		})
	if !ok {
		p.oom(l)
	}
	if !l.Large {
		p.om.WriteHeader(r, l)
	}
	return r
}

// WriteRef implements vm.Plan: no write barrier, and a release store —
// the collector reads slots only with the world stopped.
func (p *SemiSpace) WriteRef(m *vm.Mutator, src obj.Ref, i int, val obj.Ref) {
	p.om.A.StoreRelease(p.om.SlotAddr(src, i), uint64(val))
}

// ReadRef implements vm.Plan: no read barrier.
func (p *SemiSpace) ReadRef(m *vm.Mutator, src obj.Ref, i int) obj.Ref {
	return p.om.LoadSlot(src, i)
}

// PollSafepoint implements vm.Plan: collections are triggered by
// allocation failure only.
func (p *SemiSpace) PollSafepoint(m *vm.Mutator) {}

// CollectNow implements vm.Plan: a full stop-the-world copying
// collection, self-serialised.
func (p *SemiSpace) CollectNow(cause string) {
	p.vm.RunCollection(nil, func() { p.collectLocked() })
}

// collectLocked runs a collection; the caller must hold the VM's
// collection lock (vm.RunCollection / vm.CollectIfEpoch).
func (p *SemiSpace) collectLocked() {
	dur := p.vm.StopTheWorld("full", func() { p.collect() })
	p.vm.Stats.AddGCWork(dur * time.Duration(p.pool.N))
}

func (p *SemiSpace) collect() {
	from := p.half
	to := 1 - p.half
	p.half = to
	ev := p.events
	ph := time.Now()

	// Reset mutator allocators onto the to-space.
	p.vm.EachMutator(func(m *vm.Mutator) {
		ms := m.PlanState.(*ssMut)
		ms.alloc.Flush()
		ms.alloc.Kind = to
	})

	marks := markBits(p.bt.Arena)
	ev.Phase(trace.NameFlip, ph)

	// Copy the transitive closure. Work items are tagged root indices
	// or heap slot addresses of already-copied objects.
	ph = time.Now()
	rootSlots := p.vm.RootSlots(nil)
	items := make([]mem.Address, 0, len(rootSlots))
	for i := range rootSlots {
		items = append(items, mem.Address(i)|ssRootTag)
	}
	ev.PhaseArg(trace.NameRoots, ph, uint64(len(rootSlots)))

	ph = time.Now()
	p.pool.Drain(items,
		func(w *gcwork.Worker) {
			// NoBudget: copying must not fail while physical space
			// exists — the from-space frees wholesale right after.
			w.Scratch = &immix.Allocator{BT: p.bt, Kind: to, NoBudget: true}
		},
		func(w *gcwork.Worker, item mem.Address) {
			al := w.Scratch.(*immix.Allocator)
			if item&ssRootTag != 0 {
				slot := rootSlots[int(item&^ssRootTag)]
				*slot = p.forward(w, al, *slot, marks)
			} else {
				v := p.om.A.LoadRef(item)
				if !v.IsNil() {
					p.om.A.StoreRef(item, p.forward(w, al, v, marks))
				}
			}
		},
		func(w *gcwork.Worker) { w.Scratch.(*immix.Allocator).Flush() })
	ev.Phase(trace.NameCopy, ph)

	// Free the entire from-space.
	ph = time.Now()
	p.bt.AllBlocks(func(idx int) {
		if st := p.bt.State(idx); st == immix.StateFull || st == immix.StateReserved {
			if p.bt.Kind(idx) == from {
				p.bt.ReleaseFree(idx)
			}
		}
	})
	p.sweepLargeUnmarked(marks)
	ev.Phase(trace.NameFree, ph)
}

const ssRootTag mem.Address = 1 << 63

// forward copies ref to to-space (or marks a large object), pushing its
// slots for scanning, and returns its new address.
func (p *SemiSpace) forward(w *gcwork.Worker, al *immix.Allocator, ref obj.Ref, marks *meta.BitTable) obj.Ref {
	if p.om.IsLarge(ref) {
		if marks.TrySet(ref) {
			p.pushSlots(w, ref)
		}
		return ref
	}
	nv := p.copyInto(al, ref)
	if nv.IsNil() {
		p.oom(obj.Layout{Size: p.om.Size(ref), NumRefs: p.om.NumRefs(ref)})
	}
	if marks.TrySet(nv) { // first copier scans
		p.pushSlots(w, nv)
	}
	return nv
}

func (p *SemiSpace) pushSlots(w *gcwork.Worker, ref obj.Ref) {
	n := p.om.NumRefs(ref)
	for i := 0; i < n; i++ {
		slot := p.om.SlotAddr(ref, i)
		if !p.om.A.LoadRef(slot).IsNil() {
			w.Push(slot)
		}
	}
}
