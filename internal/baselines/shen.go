package baselines

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lxr/internal/conctrl"
	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/satb"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// Cycle phases for the concurrent evacuating collectors.
const (
	phIdle int32 = iota
	phMark
	phEvac
	phUpdate
)

// ZGCMinHeapBytes models ZGC's minimum-heap requirement on this
// substrate (the JDK 11 ZGC the paper evaluates "requires a substantial
// minimum heap" and fails on many benchmarks at small sizes, §4).
const ZGCMinHeapBytes = 40 << 20

// Shen is a Shenandoah-style non-generational concurrent evacuating
// collector: concurrent SATB marking, concurrent evacuation of a
// low-liveness collection set with Brooks-style forwarding resolved by
// barriers on mutator accesses, and a concurrent update-references pass.
// Mutators that cannot allocate stall until the in-flight cycle frees
// memory — the behaviour behind the paper's lusearch pathology, where a
// 9.5 GB/s allocation rate outruns the concurrent cycle (Table 1).
//
// With lvb=true the plan models ZGC instead: the load-value barrier test
// runs on every reference load regardless of phase, the collector is
// also non-generational, and construction enforces ZGC's minimum heap.
type Shen struct {
	base
	marks  *meta.BitTable
	tracer *satb.Tracer
	phase  atomic.Int32
	lvb    bool

	cands []int // cycle candidates (full at mark start)
	cset  []int // selected collection set

	cycleMu   sync.Mutex
	cycleCond *sync.Cond
	cycles    uint64      // completed cycles (guarded by cycleMu)
	wanted    atomic.Bool // a cycle has been requested

	stop atomic.Bool

	trigFree trace.NameID // "trigger:free-fraction", interned in Boot

	// cycle driver: the shared conctrl controller owns the goroutine
	// and panic containment; shenCycles supplies the work condition
	// (occupancy or an explicit request) and runs one cycle per
	// quantum.
	ctl *conctrl.Controller

	satbIn gcwork.SharedAddrQueue
}

// NewShenandoah creates the Shenandoah-like plan.
func NewShenandoah(heapBytes, gcThreads int) *Shen {
	return newShen("Shenandoah", heapBytes, gcThreads, false)
}

// NewZGC creates the ZGC-like plan. It returns nil when the heap is
// below ZGC's minimum, mirroring the paper's missing data points.
func NewZGC(heapBytes, gcThreads int) *Shen {
	if heapBytes < ZGCMinHeapBytes {
		return nil
	}
	return newShen("ZGC", heapBytes, gcThreads, true)
}

func newShen(name string, heapBytes, gcThreads int, lvb bool) *Shen {
	p := &Shen{base: newBase(name, heapBytes, gcThreads), lvb: lvb}
	p.marks = markBits(p.bt.Arena)
	p.tracer = &satb.Tracer{
		OM:     p.om,
		Marks:  p.marks,
		Filter: p.saneRef,
		OnMark: func(r obj.Ref) {
			if !p.om.IsLarge(r) {
				p.bt.AddLive(r.Block(), int32(p.om.Size(r)))
			}
		},
	}
	p.cycleCond = sync.NewCond(&p.cycleMu)
	return p
}

type shenMut struct {
	alloc immix.Allocator // strictly copying: clean blocks only
	evac  immix.Allocator // copy allocator for barrier-driven evacuation
	satbB gcwork.AddrBuffer
}

// Boot implements vm.Plan. The cycle controller polls heap occupancy
// every 2ms while idle; Stats is nil because a cycle quantum contains
// pauses and waiting — the concurrent slices are accounted inside
// runCycle instead.
func (p *Shen) Boot(v *vm.VM) {
	p.vm = v
	p.trigFree = p.events.TriggerName("free-fraction")
	p.ctl = p.newController(&shenCycles{p: p}, nil, 2*time.Millisecond)
	p.ctl.Start()
}

// Shutdown implements vm.Plan.
func (p *Shen) Shutdown() {
	p.stop.Store(true)
	p.cycleMu.Lock()
	p.cycleCond.Broadcast()
	p.cycleMu.Unlock()
	p.ctl.Stop()
	p.pool.Stop()
}

// BindMutator implements vm.Plan.
func (p *Shen) BindMutator(m *vm.Mutator) {
	m.PlanState = &shenMut{
		alloc: immix.Allocator{BT: p.bt},
		evac:  immix.Allocator{BT: p.bt},
	}
}

// UnbindMutator implements vm.Plan.
func (p *Shen) UnbindMutator(m *vm.Mutator) {
	ms := m.PlanState.(*shenMut)
	ms.alloc.Flush()
	ms.evac.Flush()
	for _, s := range ms.satbB.TakeSegs() {
		p.satbIn.Append(s)
	}
	m.PlanState = nil
}

// Alloc implements vm.Plan. Allocation failure stalls the mutator until
// the concurrent cycle completes — there is no STW fallback that can
// reclaim memory without the full concurrent mark/evac/update pipeline.
func (p *Shen) Alloc(m *vm.Mutator, l obj.Layout) obj.Ref {
	m.Safepoint()
	ms := m.PlanState.(*shenMut)
	for attempt := 0; ; attempt++ {
		var r obj.Ref
		var ok bool
		if l.Large {
			r, ok = p.allocLarge(l)
		} else {
			r, ok = ms.alloc.Alloc(l.Size)
		}
		if ok {
			if !l.Large {
				p.om.WriteHeader(r, l)
			}
			if p.phase.Load() != phIdle {
				// Allocate black: objects born during the cycle stay
				// live and are never part of the cset.
				p.marks.Set(r)
			}
			return r
		}
		// Stall until a cycle frees memory — Shenandoah's behaviour in
		// tight heaps (the paper's lusearch pathology): mutators wait on
		// the concurrent pipeline rather than failing fast.
		if attempt >= 24 {
			p.oom(l)
		}
		p.waitForCycle(m)
	}
}

// waitForCycle requests a collection cycle and blocks (as a GC-visible
// blocked mutator) until one completes.
func (p *Shen) waitForCycle(m *vm.Mutator) {
	m.Blocked(func() {
		p.cycleMu.Lock()
		target := p.cycles + 1
		p.wanted.Store(true)
		p.ctl.Kick()
		for p.cycles < target && !p.stop.Load() {
			p.cycleCond.Wait()
		}
		p.cycleMu.Unlock()
	})
}

// WriteRef implements vm.Plan: the SATB barrier captures overwritten
// values during marking; during evacuation and update phases both the
// written-to object and the written value are resolved so no stale
// reference is ever stored.
func (p *Shen) WriteRef(m *vm.Mutator, src obj.Ref, i int, val obj.Ref) {
	ms := m.PlanState.(*shenMut)
	ph := p.phase.Load()
	if ph >= phEvac {
		src = p.resolveOrCopy(ms, src)
		if !val.IsNil() {
			val = p.resolveOrCopy(ms, val)
		}
	}
	slot := p.om.SlotAddr(src, i)
	if ph == phMark {
		if old := p.om.A.LoadRef(slot); !old.IsNil() {
			ms.satbB.Push(old)
			if ms.satbB.Len() >= 4096 {
				for _, s := range ms.satbB.TakeSegs() {
					p.satbIn.Append(s)
				}
			}
		}
	}
	p.om.A.StoreRef(slot, val)
}

// ReadRef implements vm.Plan: the read barrier. Shenandoah's barrier
// engages during evacuation and update phases; ZGC's load-value barrier
// performs its test on every load.
func (p *Shen) ReadRef(m *vm.Mutator, src obj.Ref, i int) obj.Ref {
	barrier := p.lvb || p.phase.Load() >= phEvac
	if barrier {
		// Brooks semantics: all accesses resolve through the forwarding
		// pointer so reads always see the up-to-date copy.
		src = p.resolveOrCopy(m.PlanState.(*shenMut), src)
	}
	v := p.om.LoadSlot(src, i)
	if v.IsNil() {
		return v
	}
	if barrier {
		ms := m.PlanState.(*shenMut)
		if nv := p.resolveOrCopy(ms, v); nv != v {
			// Heal the slot so later loads take the fast path.
			p.om.StoreSlot(src, i, nv)
			return nv
		}
	}
	return v
}

// resolveOrCopy returns the current address of ref, copying it out of
// the collection set if nobody has yet (mutators share evacuation work
// with the collector, as under an LVB). If the copy reserve is
// exhausted the mutator waits for the collector, which either copies
// the object or aborts the block's evacuation.
func (p *Shen) resolveOrCopy(ms *shenMut, ref obj.Ref) obj.Ref {
	for {
		fw := p.om.ForwardingWord(ref)
		switch fw & 3 {
		case obj.FwdForwarded:
			return obj.Ref(fw >> 2)
		case obj.FwdBusy:
			continue
		}
		if !p.bt.HasFlag(ref.Block(), immix.FlagEvacuating) {
			return ref
		}
		if !p.om.TryClaimForwarding(ref) {
			continue
		}
		size := p.om.Size(ref)
		dst, ok := ms.evac.Alloc(size)
		if !ok {
			p.om.AbandonForwarding(ref)
			runtime.Gosched() // wait for the collector to handle it
			continue
		}
		p.om.CopyTo(ref, dst)
		p.marks.Set(dst)
		p.om.InstallForwarding(ref, dst)
		return dst
	}
}

// PollSafepoint implements vm.Plan.
func (p *Shen) PollSafepoint(m *vm.Mutator) {}

// CollectNow implements vm.Plan: requests a cycle and waits for it.
func (p *Shen) CollectNow(cause string) {
	p.cycleMu.Lock()
	target := p.cycles + 1
	p.wanted.Store(true)
	p.ctl.Kick()
	for p.cycles < target && !p.stop.Load() {
		p.cycleCond.Wait()
	}
	p.cycleMu.Unlock()
}

// --- the concurrent cycle ------------------------------------------------------

// shenCycles is the collector's cycle driver for the shared conctrl
// controller: it watches heap occupancy (via the controller's idle
// poll) and runs mark → evacuate → update-references pipelines, pausing
// briefly for init-mark, final-mark and final-update. A panic escaping
// a cycle (e.g. a *gcwork.WorkerPanic re-raised by a pause phase) is
// parked by the controller and OnStop releases the cycle rendezvous, so
// stalled mutators fail their allocations and the workload records a
// Failed data point instead of the process dying.
type shenCycles struct{ p *Shen }

// HasWork implements conctrl.CycleDriver: a cycle runs when occupancy
// crosses the trigger or a stalled mutator (or CollectNow) requested
// one.
func (d *shenCycles) HasWork() bool {
	return !d.p.stop.Load() && (d.p.wanted.Load() || d.p.cycleDue())
}

// Quantum implements conctrl.CycleDriver: one full collection cycle.
func (d *shenCycles) Quantum() {
	p := d.p
	p.runCycle()
	p.cycleMu.Lock()
	p.cycles++
	p.wanted.Store(false)
	p.cycleCond.Broadcast()
	p.cycleMu.Unlock()
}

// OnStop implements conctrl.StopNotifier: stop serving cycles and
// release every mutator waiting on the cycle rendezvous.
func (d *shenCycles) OnStop(failure any) {
	p := d.p
	p.stop.Store(true)
	p.cycleMu.Lock()
	p.cycleCond.Broadcast()
	p.cycleMu.Unlock()
}

// freeFractionDue is the Shenandoah/ZGC cycle trigger: free memory has
// fallen under 30% of the budget, i.e. used blocks are strictly above
// limit = budget*70/100 in integer math.
func freeFractionDue(used, budget int) (limit int, due bool) {
	limit = budget * 70 / 100
	return limit, used > limit
}

// cycleDue puts the free-fraction test to current occupancy. It runs on
// the controller goroutine with the controller lock held, so every read
// here is lock-free — occupancy comes from the block table's atomic
// counters (including the large-object space's, made atomic for exactly
// this path) — and reporting the decision is one wait-free ring write.
func (p *Shen) cycleDue() bool {
	used := p.bt.InUseBlocks() + p.bt.LOS().BlocksInUse()
	limit, due := freeFractionDue(used, p.bt.BudgetBlocks())
	if due {
		p.events.Trigger(p.trigFree, float64(used), float64(limit))
	}
	return due
}

func (p *Shen) runCycle() {
	if p.stop.Load() {
		return
	}
	ev := p.events
	// Init mark (pause): reset liveness, flag candidates, seed roots.
	p.vm.RunCollection(nil, func() {
		p.vm.StopTheWorld("init-mark", func() {
			pt := time.Now()
			clearBitsParallel(p.pool, p.marks)
			clearLiveParallel(p.pool, p.bt)
			p.cands = p.cands[:0]
			p.bt.AllBlocks(func(idx int) {
				if p.bt.State(idx) == immix.StateFull {
					p.bt.SetFlag(idx, immix.FlagDefrag)
					p.cands = append(p.cands, idx)
				}
			})
			p.tracer.Begin()
			ev.PhaseArg(trace.NameMarkStart, pt, uint64(len(p.cands)))
			// SATB drains are multi-producer safe; only the seed
			// snapshot needs gathering.
			pt = time.Now()
			p.vm.EachMutator(func(m *vm.Mutator) {
				ms := m.PlanState.(*shenMut)
				p.satbIn.Append(ms.satbB.Take())
			})
			p.tracer.Seed(p.vm.SnapshotRoots(nil))
			ev.Phase(trace.NameRoots, pt)
			p.phase.Store(phMark)
		})
	})

	// Concurrent mark, on the cycle driver's goroutine: it is the
	// tracer's owner thread and also the only thread that initiates
	// pauses.
	cm := time.Now()
	for {
		t0 := time.Now()
		for _, s := range p.satbIn.TakeSegs() {
			p.tracer.Seed(refsOf(s))
		}
		idle := p.tracer.Step(8192)
		p.vm.Stats.AddConcurrentWork(time.Since(t0))
		if idle && p.satbIn.Len() == 0 {
			break
		}
		if p.stop.Load() {
			p.phase.Store(phIdle)
			return
		}
	}
	ev.Span(trace.ShardConc, trace.NameConcMark, cm, time.Since(cm), 0, 0)

	// Final mark (pause): seed the last captures, finish the closure,
	// select the collection set.
	p.vm.RunCollection(nil, func() {
		p.vm.StopTheWorld("final-mark", func() {
			pt := time.Now()
			p.vm.EachMutator(func(m *vm.Mutator) {
				ms := m.PlanState.(*shenMut)
				p.satbIn.Append(ms.satbB.Take())
				// Evacuation copies into fresh blocks; flush bump spans
				// so partially used mutator blocks become walkable.
				ms.alloc.Flush()
				ms.evac.Flush()
			})
			for _, s := range p.satbIn.TakeSegs() {
				p.tracer.Seed(refsOf(s))
			}
			ev.Phase(trace.NameFlush, pt)
			pt = time.Now()
			p.tracer.DrainParallel(p.pool)
			p.tracer.Finish()
			ev.Phase(trace.NameFinalMark, pt)
			pt = time.Now()
			p.cset = p.cset[:0]
			limit := mem.BlockSize / 2
			if p.bt.FreeBlocks() < p.bt.BudgetBlocks()/10 {
				// Heap pressure: evacuate anything under 3/4 live.
				limit = mem.BlockSize * 3 / 4
			}
			for _, idx := range p.cands {
				p.bt.ClearFlag(idx, immix.FlagDefrag)
				if p.bt.State(idx) == immix.StateFull && int(p.bt.Live(idx)) < limit {
					p.bt.SetFlag(idx, immix.FlagEvacuating)
					p.cset = append(p.cset, idx)
				}
			}
			p.sweepLargeUnmarked(p.marks)
			ev.PhaseArg(trace.NameSweep, pt, uint64(len(p.cset)))
			p.phase.Store(phEvac)
		})
	})

	// Concurrent evacuation: copy every marked object in the cset.
	et := time.Now()
	evacAl := &immix.Allocator{BT: p.bt}
	aborted := map[int]bool{}
	for _, idx := range p.cset {
		t0 := time.Now()
		start := mem.BlockStart(idx)
		for g := 0; g < mem.GranulesPerBlock; g++ {
			a := start + mem.Address(g)<<mem.GranuleLog
			if !p.marks.Get(a) {
				continue
			}
			if nv := p.copyInto(evacAl, a); nv.IsNil() {
				// Copy reserve exhausted: abort this block's
				// evacuation; it stays live this cycle.
				aborted[idx] = true
				p.bt.ClearFlag(idx, immix.FlagEvacuating)
				break
			}
		}
		p.vm.Stats.AddConcurrentWork(time.Since(t0))
		if p.stop.Load() {
			evacAl.Flush()
			p.phase.Store(phIdle)
			return
		}
	}
	evacAl.Flush()
	ev.Span(trace.ShardConc, trace.NameEvac, et, time.Since(et), uint64(len(p.cset)), 0)
	p.phase.Store(phUpdate)
	_ = aborted

	// Concurrent update-references: linear heap walk fixing stale
	// references (blocks are bump-allocated, so objects are contiguous).
	ut := time.Now()
	p.bt.AllBlocks(func(idx int) {
		st := p.bt.State(idx)
		if st != immix.StateFull && st != immix.StateReserved {
			return
		}
		if p.bt.HasFlag(idx, immix.FlagEvacuating) {
			return
		}
		t0 := time.Now()
		p.updateBlockRefs(idx)
		p.vm.Stats.AddConcurrentWork(time.Since(t0))
	})
	p.bt.LOS().Each(func(a mem.Address) { p.updateObjectRefs(a) })
	ev.Span(trace.ShardConc, trace.NameUpdateRefs, ut, time.Since(ut), 0, 0)

	// Final update (pause): fix roots, release the cset.
	p.vm.RunCollection(nil, func() {
		dur := p.vm.StopTheWorld("final-update", func() {
			pt := time.Now()
			p.vm.FixRoots(func(r obj.Ref) obj.Ref { return p.om.Resolve(r) })
			ev.Phase(trace.NameResolve, pt)
			pt = time.Now()
			// Mutator bump spans may hold stale refs written before the
			// update pass visited them; their blocks were flushed at
			// final-mark, and everything allocated since contains only
			// barrier-resolved values, so roots were the last source.
			for _, idx := range p.cset {
				if p.bt.HasFlag(idx, immix.FlagEvacuating) {
					p.bt.ClearFlag(idx, immix.FlagEvacuating)
					p.bt.ReleaseFree(idx)
				}
			}
			p.cset = p.cset[:0]
			ev.Phase(trace.NameFree, pt)
			p.phase.Store(phIdle)
		})
		p.vm.Stats.AddGCWork(dur)
	})
}

// updateBlockRefs walks a bump-allocated block's contiguous objects.
func (p *Shen) updateBlockRefs(idx int) {
	a := mem.BlockStart(idx)
	end := a + mem.BlockSize
	for a < end {
		w0 := p.om.A.Load(a)
		size := int(uint32(w0))
		if size < obj.MinSize || size > mem.BlockSize {
			return // unallocated tail (or mid-allocation header)
		}
		p.updateObjectRefs(a)
		a = (a + mem.Address(size)).AlignUp(mem.Granule)
	}
}

func (p *Shen) updateObjectRefs(ref obj.Ref) {
	n := p.om.NumRefs(ref)
	for i := 0; i < n; i++ {
		slot := p.om.SlotAddr(ref, i)
		v := p.om.A.LoadRef(slot)
		if v.IsNil() {
			continue
		}
		if nv := p.om.Resolve(v); nv != v {
			p.om.A.StoreRef(slot, nv)
		}
	}
}

func refsOf(as []mem.Address) []obj.Ref { return as }
