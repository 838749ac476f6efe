package baselines

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lxr/internal/conctrl"
	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/meta"
	"lxr/internal/obj"
	"lxr/internal/remset"
	"lxr/internal/satb"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// Region kinds for G1 blocks.
const (
	g1KindYoung uint8 = 1
	g1KindOld   uint8 = 2
)

// G1 is a Garbage-First-style region-based generational collector
// (Detlefs et al. 2004): bump allocation into young regions; frequent
// stop-the-world young evacuations driven by a cross-region write
// barrier and remembered sets; concurrent SATB marking cycles that
// measure per-region liveness; and mixed collections that additionally
// evacuate the lowest-liveness old regions selected by the marking.
//
// Regions are one Immix block (32 KB) — scaled to this substrate's heap
// sizes the way G1 scales its 1-32 MB regions to multi-GB heaps.
type G1 struct {
	base
	marks  *meta.BitTable
	logs   *meta.FieldLogTable
	reuse  *meta.LineCounters
	rem    *remset.Table
	tracer *satb.Tracer

	marking  atomic.Bool // concurrent mark in progress: SATB barrier armed
	markDone atomic.Bool // marking finished; mixed collection pending
	csetOld  []int

	youngBlocks atomic.Int32 // young blocks allocated since last young GC
	youngTarget int32

	// "trigger:young-target", ":young-reserve", ":ihop", interned in Boot
	trigYoung, trigReserve, trigIHOP trace.NameID

	// concurrent mark driver (shared conctrl controller + G1's cycle
	// driver, which owns the mutator-overflow queues)
	ctl  *conctrl.Controller
	mark *g1Marker

	gcScheduled  atomic.Bool
	pausesYoung  int64
	pausesMixed  int64
	evacFailures atomic.Int64   // objects promoted in place (copy space exhausted)
	mixedAudits  atomic.Int64   // mixed pauses that ran the evacuation audit
	evacMarks    *meta.BitTable // per-pause scan-once scratch
}

// NewG1 creates a G1-like plan.
func NewG1(heapBytes, gcThreads int) *G1 {
	p := &G1{base: newBase("G1", heapBytes, gcThreads)}
	p.marks = markBits(p.bt.Arena)
	p.logs = meta.NewFieldLogTable(p.bt.Arena)
	p.reuse = meta.NewLineCounters(p.bt.Arena)
	p.rem = remset.NewTable(p.reuse)
	p.tracer = &satb.Tracer{
		OM:    p.om,
		Marks: p.marks,
		// Concurrent marking can pop stale queue entries whose memory
		// was reclaimed; the filter shields the trace from them.
		Filter: p.saneRef,
		OnMark: func(r obj.Ref) {
			if !p.om.IsLarge(r) {
				p.bt.AddLive(r.Block(), int32(p.om.Size(r)))
			}
		},
		OnEdge: func(slot mem.Address, v obj.Ref) {
			if v&(mem.Granule-1) == 0 && p.om.A.Contains(v) &&
				p.bt.HasFlag(v.Block(), immix.FlagDefrag) {
				p.rem.Record(slot)
			}
		},
	}
	p.bt.LOS().OnAlloc = func(start, end mem.Address) {
		// Arm every word: stores into large objects must always be
		// captured (there is no promotion step to arm them later).
		for a := start; a < end; a += mem.WordSize {
			p.logs.SetUnlogged(a)
		}
		p.marks.ClearRange(start, end)
	}
	// Young generation sized at a quarter of the heap, floor 8 regions.
	p.youngTarget = int32(p.bt.BudgetBlocks() / 4)
	if p.youngTarget < 8 {
		p.youngTarget = 8
	}
	p.evacMarks = markBits(p.bt.Arena)
	p.mark = &g1Marker{g1: p}
	return p
}

type g1Mut struct {
	alloc immix.Allocator // young allocation
	dirty gcwork.AddrBuffer
	satbB gcwork.AddrBuffer // SATB old values during marking
}

// Boot implements vm.Plan.
func (p *G1) Boot(v *vm.VM) {
	p.vm = v
	p.trigYoung = p.events.TriggerName("young-target")
	p.trigReserve = p.events.TriggerName("young-reserve")
	p.trigIHOP = p.events.TriggerName("ihop")
	p.ctl = p.newController(p.mark, v.Stats, 0)
	p.ctl.Start()
}

// Shutdown implements vm.Plan.
func (p *G1) Shutdown() {
	p.ctl.Stop()
	p.pool.Stop()
}

// BindMutator implements vm.Plan.
func (p *G1) BindMutator(m *vm.Mutator) {
	ms := &g1Mut{}
	ms.alloc = immix.Allocator{
		BT:   p.bt,
		Kind: g1KindYoung,
		OnSpan: func(start, end mem.Address) {
			p.logs.ClearRange(start, end)
			p.youngBlocks.Add(1)
		},
	}
	m.PlanState = ms
}

// UnbindMutator implements vm.Plan.
func (p *G1) UnbindMutator(m *vm.Mutator) {
	ms := m.PlanState.(*g1Mut)
	ms.alloc.Flush()
	for _, s := range ms.dirty.TakeSegs() {
		p.mark.dirty.Append(s)
	}
	for _, s := range ms.satbB.TakeSegs() {
		p.mark.satbIn.Append(s)
	}
	m.PlanState = nil
}

// Alloc implements vm.Plan.
func (p *G1) Alloc(m *vm.Mutator, l obj.Layout) obj.Ref {
	m.Safepoint()
	ms := m.PlanState.(*g1Mut)
	// Repeated attempts give the concurrent mark time to reach its
	// final-mark pause so a mixed collection can reclaim old regions
	// (real G1's fallback is a full compaction; repeated young+mixed
	// pauses play that role here).
	r, ok := gcRetry(p.vm, m, 12,
		func() (obj.Ref, bool) {
			if l.Large {
				return p.allocLarge(l)
			}
			return ms.alloc.Alloc(l.Size)
		},
		func() { p.collectLocked() })
	if !ok {
		p.oom(l)
	}
	if !l.Large {
		p.om.WriteHeader(r, l)
	} else if p.marking.Load() {
		// Allocate black: SATB keeps objects allocated during the mark
		// alive; without this the large-object sweep at mark completion
		// could reclaim a live newborn.
		p.marks.Set(r)
	}
	return r
}

// WriteRef implements vm.Plan: G1's write barriers. The remembered-set
// barrier logs each mutated field once per epoch (card-table analogue);
// the SATB barrier additionally captures the overwritten value while a
// concurrent mark is running; stores into mixed-collection candidates
// feed their remembered sets.
func (p *G1) WriteRef(m *vm.Mutator, src obj.Ref, i int, val obj.Ref) {
	ms := m.PlanState.(*g1Mut)
	slot := p.om.SlotAddr(src, i)
	if p.logs.Get(slot) != 0 {
		p.logSlot(ms, slot)
	}
	p.om.A.StoreRef(slot, val)
	if !val.IsNil() && (p.marking.Load() || p.markDone.Load()) && p.bt.HasFlag(val.Block(), immix.FlagDefrag) {
		p.rem.Record(slot)
	}
}

func (p *G1) logSlot(ms *g1Mut, slot mem.Address) {
	spins := 0
	for {
		switch p.logs.Get(slot) {
		case meta.LogLogged:
			return
		case meta.LogUnlogged:
			if p.logs.TryBeginLog(slot) {
				if p.marking.Load() {
					if old := p.om.A.LoadRef(slot); !old.IsNil() {
						ms.satbB.Push(old)
					}
				}
				ms.dirty.Push(slot)
				p.logs.FinishLog(slot)
				return
			}
		default:
			// Busy: bounded spin, then yield — a preempted logger must
			// not stall this store indefinitely.
			if spins++; spins >= logSpinBudget {
				spins = 0
				runtime.Gosched()
			}
		}
	}
}

// ReadRef implements vm.Plan: no read barrier (G1 evacuates in pauses).
func (p *G1) ReadRef(m *vm.Mutator, src obj.Ref, i int) obj.Ref {
	return p.om.LoadSlot(src, i)
}

// g1YoungAtTarget is the young-collection trigger: the young generation
// has reached its target size.
func g1YoungAtTarget(young, target int) bool { return young >= target }

// g1ReserveShort is the earlier young-collection trigger: above a
// 4-block floor, the remaining budget no longer covers the evacuation
// copy reserve (real G1 reserves to-space the same way to avoid
// evacuation failure).
func g1ReserveShort(young, remaining int) (reserve int, short bool) {
	reserve = young + young/4 + 8
	return reserve, young > 4 && remaining <= reserve
}

// g1MarkDue is the IHOP test: a concurrent mark starts when occupancy
// is strictly above ihop = budget*45/100 in integer math.
func g1MarkDue(used, budget int) (ihop int, due bool) {
	ihop = budget * 45 / 100
	return ihop, used > ihop
}

// PollSafepoint implements vm.Plan: a young collection is due when the
// young generation is at its target or the copy reserve is short.
func (p *G1) PollSafepoint(m *vm.Mutator) {
	// Capture the epoch BEFORE reading the signals: if another
	// mutator's pause completes in between, the signals judged here
	// were pre-pause state and CollectIfEpoch discards the trigger
	// instead of running a back-to-back collection.
	e := p.vm.GCEpoch()
	young, remaining := int(p.youngBlocks.Load()), p.bt.BudgetRemaining()
	if g1YoungAtTarget(young, int(p.youngTarget)) {
		p.events.Trigger(p.trigYoung, float64(young), float64(p.youngTarget))
	} else if reserve, short := g1ReserveShort(young, remaining); short {
		p.events.Trigger(p.trigReserve, float64(remaining), float64(reserve))
	} else {
		return
	}
	if p.gcScheduled.CompareAndSwap(false, true) {
		p.vm.CollectIfEpoch(m, e, func() { p.collectLocked() })
		p.gcScheduled.Store(false)
	}
}

// CollectNow implements vm.Plan: a young (possibly mixed) evacuation
// pause, self-serialised.
func (p *G1) CollectNow(cause string) {
	p.vm.RunCollection(nil, func() { p.collectLocked() })
}

func (p *G1) collectLocked() {
	dur := p.vm.StopTheWorldTagged("young", p.collect)
	p.vm.Stats.AddGCWork(dur * time.Duration(p.pool.N))
}

// collect performs the evacuation pause: copy all live young objects to
// old regions (promotion), optionally evacuating the marking-selected
// old collection set, then free every young region. Returns the pause
// kind for telemetry attribution: "young", or "mixed" when the pause
// additionally evacuated the old collection set.
func (p *G1) collect() string {
	p.ctl.Quiesce()
	defer p.ctl.Release()
	p.pausesYoung++
	ev := p.events
	ph := time.Now()

	var dirty []mem.Address
	var satbSegs [][]mem.Address
	var flushMu sync.Mutex
	p.vm.EachMutatorParallel(p.pool, func(m *vm.Mutator) {
		ms := m.PlanState.(*g1Mut)
		ms.alloc.Flush()
		segs := ms.satbB.TakeSegs()
		flushMu.Lock()
		dirty = ms.dirty.TakeInto(dirty)
		satbSegs = append(satbSegs, segs...)
		flushMu.Unlock()
	})
	dirty = append(dirty, p.mark.dirty.Take()...)
	satbSegs = append(satbSegs, p.mark.satbIn.TakeSegs()...)
	ev.PhaseArg(trace.NameFlush, ph, uint64(len(dirty)))
	if p.marking.Load() {
		ph = time.Now()
		// Final mark: when the concurrent tracer has drained everything
		// captured up to the previous epoch, this pause seeds the last
		// captures (segment-granular, no flattening), completes the
		// closure in parallel, selects the old collection set from the
		// measured liveness, and reclaims dead large objects.
		wasIdle := !p.tracer.Pending()
		for _, s := range satbSegs {
			p.tracer.Seed(s)
		}
		if wasIdle {
			p.tracer.DrainParallel(p.pool)
			p.finishMark()
			p.sweepLargeUnmarked(p.marks)
		}
		ev.Phase(trace.NameFinalMark, ph)
	}

	mixed := p.markDone.Load() && len(p.csetOld) > 0
	if mixed {
		p.pausesMixed++
	}

	// Root slots (parallel gather over rendezvous shards).
	ph = time.Now()
	rootSlots := p.vm.RootSlots(p.pool, nil)
	ev.PhaseArg(trace.NameRoots, ph, uint64(len(rootSlots)))

	// Work items: tagged roots, dirty slots (old regions only — young
	// slots die with their regions), and validated remset entries for
	// the old cset.
	items := make([]mem.Address, 0, len(dirty)+len(rootSlots))
	for i := range rootSlots {
		items = append(items, mem.Address(i)|ssRootTag)
	}
	for _, s := range dirty {
		p.logs.SetUnlogged(s) // re-arm the barrier
		if p.bt.Kind(s.Block()) == g1KindOld || p.bt.LOS().Contains(s) {
			items = append(items, s)
		}
	}
	if mixed {
		// Keep entries whose slot lives in the old generation or the
		// large object space; young slots die with their regions (their
		// survivors are rescanned during evacuation). LOS slots must be
		// kept: a stable large-object field written before the mark is
		// captured only by the mark's edge recording, never by a dirty
		// entry, so dropping it would leave the slot dangling after the
		// cset is freed.
		for _, e := range p.rem.TakeAll() {
			if p.rem.Valid(e) && (p.bt.Kind(e.Slot.Block()) == g1KindOld || p.bt.LOS().Contains(e.Slot)) {
				items = append(items, e.Slot)
			}
		}
	}

	evacMarks := p.evacMarks // scan-once guard for this pause
	clearBitsParallel(p.pool, evacMarks)
	ph = time.Now()
	p.pool.Drain(items,
		func(w *gcwork.Worker) {
			w.Scratch = &immix.Allocator{BT: p.bt, Kind: g1KindOld, NoBudget: true,
				OnSpan: func(start, end mem.Address) {
					p.logs.ClearRange(start, end)
				}}
		},
		func(w *gcwork.Worker, item mem.Address) {
			if item&ssRootTag != 0 {
				slot := rootSlots[int(item&^ssRootTag)]
				if nv, changed := p.evacuate(w, *slot, evacMarks); changed {
					*slot = nv
				}
			} else {
				v := p.om.A.LoadRef(item)
				// Slots arriving through remembered sets can be stale
				// (the containing object died); discard implausible
				// values, the reuse-counter tag catches the rest.
				if v.IsNil() || v&(mem.Granule-1) != 0 || !p.om.A.Contains(v) {
					return
				}
				if nv, changed := p.evacuate(w, v, evacMarks); changed {
					p.om.A.StoreRef(item, nv)
				}
			}
		},
		func(w *gcwork.Worker) { w.Scratch.(*immix.Allocator).Flush() })
	ev.PhaseArg(trace.NameEvac, ph, uint64(len(items)))

	// The concurrent mark's pending stack and inbox may hold addresses
	// of objects this pause just moved; resolve them through the (still
	// intact) forwarding words before the moved-from regions can be
	// reused, or the trace would silently under-mark and a later mixed
	// collection would free live regions.
	if p.marking.Load() {
		p.tracer.ResolvePending(func(r obj.Ref) obj.Ref {
			if r&(mem.Granule-1) != 0 || !p.om.A.Contains(r) {
				return r
			}
			return p.om.Resolve(r)
		})
	}

	// Mixed-collection fidelity audit (verify builds): before the cset
	// regions are freed, prove every incoming edge was covered — no
	// live object, root or large object may still reference a region
	// about to be released.
	if mixed && g1AuditEnabled {
		ph = time.Now()
		p.auditMixedEvacuation(rootSlots)
		ev.Phase(trace.NameAudit, ph)
	}

	// Free all young regions and — only at a mixed pause, when the cset
	// was evacuated above — the FlagDefrag old regions. Outside a mixed
	// pause the flag marks un-evacuated *candidates* of an in-flight
	// mark (set at startMark), which are full of live objects; freeing
	// them here destroyed live data. Regions that suffered an
	// evacuation failure are promoted in place instead: they keep their
	// objects and join the old generation.
	ph = time.Now()
	p.bt.AllBlocks(func(idx int) {
		st := p.bt.State(idx)
		if st != immix.StateFull && st != immix.StateReserved {
			return
		}
		if p.bt.Kind(idx) == g1KindYoung || (mixed && p.bt.HasFlag(idx, immix.FlagDefrag)) {
			if p.bt.HasFlag(idx, immix.FlagEvacuating) {
				p.clearSelfForwards(idx)
				p.bt.ClearFlag(idx, immix.FlagEvacuating|immix.FlagDefrag)
				p.bt.SetKind(idx, g1KindOld)
				return
			}
			p.reuse.BumpRange(mem.BlockStart(idx), mem.BlockStart(idx)+mem.BlockSize)
			p.bt.ReleaseFree(idx)
		}
	})
	if mixed {
		p.csetOld = nil
		p.markDone.Store(false)
	}
	p.youngBlocks.Store(0)
	ev.Phase(trace.NameFree, ph)

	// Trigger a concurrent mark when occupancy crosses the IHOP.
	if !p.marking.Load() && !p.markDone.Load() {
		used := p.bt.InUseBlocks() + p.bt.LOS().BlocksInUse()
		if ihop, due := g1MarkDue(used, p.bt.BudgetBlocks()); due {
			ev.Trigger(p.trigIHOP, float64(used), float64(ihop))
			ph = time.Now()
			p.startMark(rootSlots)
			ev.Phase(trace.NameMarkStart, ph)
		}
	}
	if mixed {
		return "mixed"
	}
	return "young"
}

// evacuate copies a young (or mixed-cset) object, scanning it once for
// further in-scope references. Returns the possibly-new address.
func (p *G1) evacuate(w *gcwork.Worker, ref obj.Ref, evacMarks *meta.BitTable) (obj.Ref, bool) {
	inScope := p.bt.Kind(ref.Block()) == g1KindYoung || p.bt.HasFlag(ref.Block(), immix.FlagDefrag)
	if p.om.IsLarge(ref) {
		inScope = false
	}
	if !inScope {
		// Still scan large/old targets reachable from roots? No: old
		// objects' young refs are covered by dirty slots; large objects
		// behave as old. Only resolve prior forwarding.
		if p.om.IsForwarded(ref) {
			return p.om.ForwardingPointer(ref), true
		}
		return ref, false
	}
	if !p.saneRef(ref) {
		// A stale dirty/remset slot whose value happens to land in an
		// in-scope region but does not decode to an object: copying it
		// would trust a garbage header. Leave the slot alone.
		return ref, false
	}
	al := w.Scratch.(*immix.Allocator)
	nv := p.copyOrPin(al, ref)
	if evacMarks.TrySet(nv) {
		// Keep promoted objects live for an in-flight concurrent mark
		// (they are new since the snapshot).
		marking := p.marking.Load()
		if marking {
			p.marks.Set(nv)
			p.bt.AddLive(nv.Block(), int32(p.om.Size(nv)))
		}
		n := p.om.NumRefs(nv)
		for i := 0; i < n; i++ {
			slot := p.om.SlotAddr(nv, i)
			p.logs.SetUnlogged(slot)
			if v := p.om.A.LoadRef(slot); !v.IsNil() {
				// Promotion scan stands in for the marking trace on
				// this (now-marked) object: feed the mixed-collection
				// remembered sets, or evacuation would miss the slot.
				if (marking || p.markDone.Load()) && p.bt.HasFlag(v.Block(), immix.FlagDefrag) {
					p.rem.Record(slot)
				}
				if marking {
					// The copy is marked without ever being scanned by
					// the tracer (its TrySet will fail), so its snapshot
					// edges must be handed to the trace here — otherwise
					// the closure is cut and everything reachable only
					// through this object stays unmarked, letting a
					// later mixed collection free live regions. Young
					// targets seeded here are resolved through their
					// forwarding words at the end of this pause
					// (ResolvePending).
					p.tracer.SeedOne(v)
				}
				w.Push(slot)
			}
		}
	}
	return nv, true
}

// copyOrPin is copyWith with real G1's evacuation-failure policy: when
// the copy space is physically exhausted the object is self-forwarded
// (so every racing and later reference resolves to the in-place copy —
// the object can never split) and its region is flagged for in-place
// promotion at the end of the pause.
func (p *G1) copyOrPin(al *immix.Allocator, ref obj.Ref) obj.Ref {
	return p.copyWith(al, ref, func(r obj.Ref) obj.Ref {
		p.om.InstallForwarding(r, r)
		p.bt.SetFlag(r.Block(), immix.FlagEvacuating)
		p.evacFailures.Add(1)
		return r
	})
}

// clearSelfForwards resets the self-forwarding pointers installed by
// evacuation failure (real G1's "remove self-forwards" pause phase),
// walking the promoted region's bump-allocated contiguous objects. The
// pointers must not survive the pause: a later mixed collection would
// read them as "already evacuated" and free the region under a live
// object.
func (p *G1) clearSelfForwards(idx int) {
	a := mem.BlockStart(idx)
	end := a + mem.BlockSize
	for a < end {
		size := int(uint32(p.om.A.Load(a)))
		if size < obj.MinSize || size > mem.BlockSize {
			return // unallocated tail
		}
		r := obj.Ref(a)
		if fw := p.om.ForwardingWord(r); fw&3 == obj.FwdForwarded && obj.Ref(fw>>2) == r {
			p.om.AbandonForwarding(r)
		}
		a = (a + mem.Address(size)).AlignUp(mem.Granule)
	}
}

// startMark begins a concurrent marking cycle: liveness accounting is
// reset, mixed-collection candidates are flagged so the trace and the
// barrier build their remembered sets, and the tracer is seeded with the
// roots.
func (p *G1) startMark(rootSlots []*obj.Ref) {
	clearBitsParallel(p.pool, p.marks)
	clearLiveParallel(p.pool, p.bt)
	resetCountersParallel(p.pool, p.reuse)
	// Candidates: old regions (full) — their liveness will be measured
	// by this mark; those under 50% at mark end form the cset.
	count := 0
	p.bt.AllBlocks(func(idx int) {
		if p.bt.State(idx) == immix.StateFull && p.bt.Kind(idx) == g1KindOld && count < p.bt.BudgetBlocks()/4 {
			p.bt.SetFlag(idx, immix.FlagDefrag)
			count++
		}
	})
	p.tracer.Begin()
	seeds := make([]obj.Ref, 0, len(rootSlots))
	for _, s := range rootSlots {
		seeds = append(seeds, *s)
	}
	p.tracer.Seed(seeds)
	p.marking.Store(true)
}

// finishMark runs when the tracer drains: liveness figures select the
// old collection set; regions not selected drop their defrag flag.
func (p *G1) finishMark() {
	p.marking.Store(false)
	type cand struct{ idx, live int }
	var cands []cand
	p.bt.AllBlocks(func(idx int) {
		if !p.bt.HasFlag(idx, immix.FlagDefrag) {
			return
		}
		live := int(p.bt.Live(idx))
		if live*2 < mem.BlockSize && p.bt.State(idx) == immix.StateFull {
			cands = append(cands, cand{idx, live})
		} else {
			p.bt.ClearFlag(idx, immix.FlagDefrag)
		}
	})
	sort.Slice(cands, func(i, j int) bool { return cands[i].live < cands[j].live })
	p.csetOld = p.csetOld[:0]
	for _, c := range cands {
		p.csetOld = append(p.csetOld, c.idx)
	}
	p.tracer.Finish()
	p.markDone.Store(true)
}

// --- concurrent mark driver ---------------------------------------------------

// g1Marker is G1's concurrent-marking cycle driver for the shared
// conctrl controller, which owns the goroutine, the quiesce/release
// handshake and panic parking. The driver holds only G1's work state:
// the mutator-overflow queues and the tracer-idle latch. Each trace
// advance runs on the controller's goroutine; collect() never touches
// the tracer until the controller acknowledges quiescence. Completion
// is decided at the next pause (the final-mark), which seeds the last
// captured values.
type g1Marker struct {
	g1   *G1
	idle atomic.Bool // tracer drained; wait for a pause to seed more

	dirty  gcwork.SharedAddrQueue
	satbIn gcwork.SharedAddrQueue
}

// HasWork implements conctrl.CycleDriver.
func (d *g1Marker) HasWork() bool {
	return d.g1.marking.Load() && !d.idle.Load()
}

// Quantum implements conctrl.CycleDriver: one bounded trace advance.
func (d *g1Marker) Quantum() {
	if d.g1.tracer.Step(traceQuantum) {
		d.idle.Store(true)
	}
}

// OnRelease implements conctrl.ReleaseNotifier: pauses may have seeded
// new trace work, so the idle latch resets.
func (d *g1Marker) OnRelease() { d.idle.Store(false) }

const traceQuantum = 4096

// PausesYoung returns young pause count (telemetry).
func (p *G1) PausesYoung() int64 { return p.pausesYoung }

// PausesMixed returns mixed pause count (telemetry).
func (p *G1) PausesMixed() int64 { return p.pausesMixed }

// EvacFailures returns how many objects were promoted in place because
// the evacuation copy space was exhausted (telemetry).
func (p *G1) EvacFailures() int64 { return p.evacFailures.Load() }
