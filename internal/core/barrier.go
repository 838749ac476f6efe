package core

import (
	"fmt"
	"runtime"

	"lxr/internal/obj"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// allocPublishBytes is the grain at which a mutator's private
// allocation counters are published to the global trigger counters (and
// the trigger re-evaluated). Coarse enough that the allocation fast
// path almost never touches a shared cache line, fine enough that the
// trigger fires within numMutators x 16 KB of the configured budget —
// noise against allocation budgets that start in the megabytes.
const allocPublishBytes = 16 << 10

// logSpinBudget bounds the busy-wait on a field-log state held Busy by
// a racing logger before yielding the processor: a preempted winner
// must not stall the store indefinitely.
const logSpinBudget = 64

// barrierSampleMask samples every 64th barrier slow path per mutator
// into the event tracer — enough instants to see barrier storms on the
// timeline without recording every field's first store.
const barrierSampleMask = 63

// Alloc implements vm.Plan. The common case is a thread-local Immix
// bump allocation whose bookkeeping is entirely mutator-local: bump
// bytes accumulate in the allocator's SinceEpoch counter and the object
// count in mutState, harvested at safepoints and pauses, so the fast
// path performs no atomic operations. Objects above half a block go to
// the large object space. Layout validation and the new slots' Logged
// state are verify-mode checks (LXR_VERIFY), not a per-allocation
// branch chain.
func (p *LXR) Alloc(m *vm.Mutator, l obj.Layout) obj.Ref {
	ms := m.PlanState.(*mutState)
	p.pollTrigger(m, ms)
	m.PollPark()
	if verifyEnabled {
		if err := l.Validate(); err != nil {
			panic(err)
		}
	}
	for attempt := 0; ; attempt++ {
		var a obj.Ref
		var ok bool
		if l.Large {
			if a, ok = p.bt.LOS().Alloc(l.Size); ok {
				p.losNewMu.q.Push(a)
				ms.largeSince += int64(l.Size)
			}
		} else {
			a, ok = ms.alloc.Alloc(l.Size)
		}
		if ok {
			p.om.WriteHeader(a, l)
			if verifyEnabled {
				p.verifyFresh(a)
			}
			ms.allocObjs++
			return a
		}
		// Heap full: collect and retry. The first retry is a regular RC
		// pause, its SATB vote the ordinary one; the next three start and
		// finish a trace inside the pause (a "degenerate" full collection)
		// to reclaim cycles.
		if attempt > 3 {
			panic(fmt.Sprintf("lxr: out of memory allocating %d bytes: %s", l.Size, p.bt))
		}
		cause, n := pauseCauseHeapFull, float64(attempt)
		if attempt > 0 {
			cause = pauseCauseEmergency
		}
		p.vm.CollectIfEpoch(m, p.vm.GCEpoch(), func() {
			p.events.Trigger(p.trigFull, n, 0)
			p.collectRC(cause)
		})
	}
}

// WriteRef implements vm.Plan: LXR's field-logging write barrier
// (Fig. 3). The fast path is exactly one metadata load (the field-log
// state) plus the store: the slow path captures the to-be-overwritten
// referent (for coalescing decrements and the SATB snapshot) and the
// field address (for the coalescing increment at the next pause), once
// per field per epoch. The fast path does no SATB or block-flag checks,
// and no PlanState type assertion, at all.
func (p *LXR) WriteRef(m *vm.Mutator, src obj.Ref, i int, val obj.Ref) {
	if verifyEnabled && !val.IsNil() {
		if !p.plausibleRef(val) {
			panic("lxr verify: mutator stored implausible ref")
		}
		if s := p.om.Size(val); s < 16 || p.om.NumRefs(val) > 8000 {
			p.diagnoseSlot(p.om.SlotAddr(src, i), val)
		}
	}
	slot := p.om.SlotAddr(src, i)
	if p.logs.Get(slot) != 0 { // isUnlogged (or busy)
		p.logField(m.PlanState.(*mutState), slot)
	}
	// A release store, not a fenced one: the capture above was published
	// by a CAS, and nothing this mutator loads next is decided by a party
	// that must first see this slot (DESIGN.md, "Stores that need no
	// fence").
	p.om.A.StoreRelease(slot, uint64(val))
}

func (p *LXR) logField(ms *mutState, slot obj.Ref) {
	spins := 0
	for {
		switch p.logs.Get(slot) {
		case 0: // logged by a racing thread; its capture is published
			return
		case 1: // unlogged
			if p.logs.TryBeginLog(slot) {
				old := p.om.A.LoadRef(slot)
				if !old.IsNil() {
					ms.decBuf.Push(old)
				}
				ms.modBuf.Push(slot)
				p.logs.FinishLog(slot)
				ms.slowOps++
				if tr := p.events; tr != nil && ms.slowOps&barrierSampleMask == 0 {
					tr.Instant(ms.shard, trace.NameBarrierSlow, uint64(ms.slowOps), 0)
				}
				return
			}
		default:
			// Busy: the winner is capturing the old value. Bounded spin,
			// then yield — a preempted winner must not stall this store.
			if spins++; spins >= logSpinBudget {
				spins = 0
				runtime.Gosched()
			}
		}
	}
}

// ReadRef implements vm.Plan. LXR requires no read barrier — one of its
// key advantages over the LVB-based concurrent copying collectors.
func (p *LXR) ReadRef(m *vm.Mutator, src obj.Ref, i int) obj.Ref {
	return p.om.LoadSlot(src, i)
}

// pollTrigger is the RC trigger poll shared by Alloc and PollSafepoint.
// The fast path is one mutator-local comparison: until this mutator has
// accumulated allocPublishBytes of unpublished allocation, nothing
// global is touched. Past the grain, the private counter is published
// and the pacer consulted.
//
// The GC epoch is captured BEFORE the pacer reads the signals: if
// another mutator's pause completes in between, the signals this poll
// judged were pre-pause state and the CollectIfEpoch guard discards the
// trigger instead of starting a back-to-back collection the pacer never
// asked for.
func (p *LXR) pollTrigger(m *vm.Mutator, ms *mutState) {
	if ms.alloc.SinceEpoch+ms.largeSince < allocPublishBytes {
		return
	}
	v := ms.alloc.HarvestSinceEpoch() + ms.largeSince
	ms.largeSince = 0
	p.allocSince.Add(v)
	if tr := p.events; tr != nil {
		// Already rate-limited to the 16 KB publish grain.
		tr.Instant(ms.shard, trace.NameAllocPublish, uint64(v), 0)
	}
	e := p.vm.GCEpoch()
	if p.pacer.Due(p.allocSince.Load()) && p.gcScheduled.CompareAndSwap(false, true) {
		p.vm.CollectIfEpoch(m, e, func() { p.collectRC(pauseCauseTrigger) })
		p.gcScheduled.Store(false)
	}
}

// PollSafepoint implements vm.Plan: the RC trigger fast path (see
// pollTrigger). The pacer folds the survival-rate trigger into a single
// allocation-budget comparison (policy.RCPacer.AllocLimit).
func (p *LXR) PollSafepoint(m *vm.Mutator) {
	if ms, ok := m.PlanState.(*mutState); ok {
		p.pollTrigger(m, ms)
	}
}

// CollectNow implements vm.Plan: an explicit synchronous collection,
// self-serialised against other collections.
func (p *LXR) CollectNow(cause string) {
	p.vm.RunCollection(nil, func() { p.collectRC(pauseCauseExplicit) })
}
