package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
	"lxr/internal/policy"
	"lxr/internal/trace"
	"lxr/internal/vm"
)

// Pause causes.
const (
	pauseCauseTrigger   = "trigger"   // survival/increment trigger
	pauseCauseHeapFull  = "heap-full" // allocation failure
	pauseCauseEmergency = "emergency" // allocation failure persisting: a whole trace in the pause
	pauseCauseExplicit  = "explicit"
)

// rootTag marks work items that index rootSlots rather than being heap
// slot addresses (bit 63 can never be a valid arena offset).
const rootTag mem.Address = 1 << 63

// Telemetry counter names (vm.Stats).
const (
	CtrPauses         = "lxr.pauses"
	CtrPausesSATB     = "lxr.pauses.satb"      // pauses that started an SATB trace
	CtrPausesLazy     = "lxr.pauses.lazy"      // pauses that had to finish lazy decrements or sweeping
	CtrBarrierSlow    = "lxr.barrier.slow"     // field-logging slow paths
	CtrIncrements     = "lxr.increments"       // increments applied
	CtrDecrements     = "lxr.decrements"       // decrements applied
	CtrPromoted       = "lxr.promoted"         // young objects surviving
	CtrAllocObjects   = "lxr.alloc.objects"    // objects allocated
	CtrDeadOld        = "lxr.dead.old"         // mature objects reclaimed by RC
	CtrDeadSATB       = "lxr.dead.satb"        // mature objects reclaimed by SATB
	CtrStuck          = "lxr.stuck"            // counts that stuck at max
	CtrYoungEvacBytes = "lxr.evac.young.bytes" // young bytes copied
	CtrYoungFreeBlk   = "lxr.young.freeblocks" // clean blocks from young sweeps
	CtrSurvivedBytes  = "lxr.survived.bytes"
	CtrAllocBytes     = "lxr.alloc.bytes"
	CtrDefensiveSkip  = "lxr.defensive.skips" // implausible slot values filtered
)

// collectRC performs one RC epoch: a brief stop-the-world pause that
// applies increments (evacuating surviving young objects), sweeps young
// blocks, manages the SATB trace lifecycle, and hands decrements to the
// concurrent thread. The recorded pause kind is refined by what the
// pause actually absorbed — "rc" (young RC epoch), "+dec" when it had
// to finish lazy decrements or sweeping, "+mark" when it completed the
// SATB trace — so the per-phase pause histograms separate those
// populations.
func (p *LXR) collectRC(cause string) {
	kind := "rc"
	dur := p.vm.StopTheWorldTagged(kind, func() string {
		p.conc.quiesce()
		defer p.conc.release()
		kind = p.pausePipeline(cause)
		return kind
	})
	// Approximate collector cycles: the pause occupies the GC worker
	// pool (LBO's "total cycles" metric, Fig. 7b).
	p.vm.Stats.AddGCWork(dur * time.Duration(p.pool.N))
}

// pausePipeline runs the pause phases and returns the refined pause
// kind for telemetry attribution.
func (p *LXR) pausePipeline(cause string) string {
	hadDec, hadMark := false, false
	st := p.vm.Stats
	ev := p.events // nil when tracing is off; Phase is a no-op then
	st.Add(CtrPauses, 1)
	ph := time.Now()

	// 1. Flush mutator state: thread-local allocators (their bump spans
	// may be reclaimed below), barrier buffers, and the per-mutator
	// epoch counters — the published residues in the global atomics plus
	// each mutator's unpublished tail add up to the exact epoch totals.
	// Barrier captures stay segment-granular: the mutators' buffer
	// segments are handed to the tracer and the scheduler whole, and
	// the flush allocates nothing in proportion to the batch. Fresh Go
	// heap is first-touch page faults when the embedding process's heap
	// rarely collects, and here they would land inside the pause
	// (DESIGN.md, "Pause scratch").
	var decSegs, modSegs [][]mem.Address
	allocVol := p.allocSince.Swap(0)
	allocObjs := p.allocObjects.Swap(0)
	slowOps := p.barrierSlow.Swap(0)
	p.vm.EachMutator(func(m *vm.Mutator) {
		ms := m.PlanState.(*mutState)
		ms.alloc.Flush()
		allocVol += ms.alloc.HarvestSinceEpoch() + ms.largeSince
		allocObjs += ms.allocObjs
		slowOps += ms.slowOps
		ms.largeSince, ms.allocObjs, ms.slowOps = 0, 0, 0
		decSegs = append(decSegs, ms.decBuf.TakeSegs()...)
		modSegs = append(modSegs, ms.modBuf.TakeSegs()...)
	})
	decSegs = append(decSegs, p.conc.decs.TakeSegs()...)
	modSegs = append(modSegs, p.conc.mods.TakeSegs()...)
	nDecSeeds := 0
	for _, s := range decSegs {
		nDecSeeds += len(s)
	}
	st.Add(CtrAllocBytes, allocVol)
	st.Add(CtrAllocObjects, allocObjs)
	st.Add(CtrBarrierSlow, slowOps)
	ev.PhaseArg(trace.NameFlush, ph, uint64(nDecSeeds))

	// 2. Finish unfinished lazy work first (§3.2.1), across all pause
	// workers: the previous epoch's decrements, then the reclamation
	// sweep of a trace an earlier pause completed. Both precede the
	// increments: a sweep that met this pause's promotions would take
	// them, unmarked, for dead.
	if hadDec = p.conc.hasPendingDecs() || p.conc.sweepLeft(); hadDec {
		st.Add(CtrPausesLazy, 1)
	}
	if p.conc.hasPendingDecs() {
		ph = time.Now()
		segs, touched := p.conc.takePending()
		p.processDecWork(segs, touched)
		ev.Phase(trace.NameDecs, ph)
	}
	if p.conc.sweepNext != 0 {
		ph = time.Now()
		p.finishSweep()
		ev.Phase(trace.NameSATBFinal, ph)
	}

	// 3. SATB seeding and (maybe) completion. decSegs hold the
	// overwritten referents: both RC decrements and SATB snapshot edges
	// (§3.2.2). The trace completes in the pause that finds the tracer
	// idle — by then every snapshot edge captured up to the previous
	// epoch has been traced, and this pause's captures drain in a short
	// parallel final mark.
	traceComplete := false
	if p.satbActive.Load() {
		ph = time.Now()
		p.traceEpochs++
		wasIdle := !p.tracer.Pending()
		for _, s := range decSegs {
			p.tracer.Seed(s)
		}
		if wasIdle || p.cfg.NoConcurrentSATB || cause == pauseCauseEmergency ||
			p.traceEpochs >= policy.MaxTraceEpochs {
			p.tracer.DrainParallel(p.pool)
			traceComplete = true
		}
		ev.Phase(trace.NameSATBSeed, ph)
	}

	// 4. Increments: roots (deferral) and modified fields (coalescing),
	// with recursive increments into surviving young objects, which are
	// evacuated on their first increment (§3.3.2).
	p.survived.Store(0)
	p.copiedY.Store(0)
	ph = time.Now()
	p.rootSlots = p.vm.RootSlots(p.rootSlots[:0])
	if n := len(p.rootSlots); n > 0 {
		// Item i is always rootTag|i and drains only read their seeds,
		// so the segment is extended when the root count grows and
		// otherwise reused as it stands.
		for i := len(p.rootItems); i < n; i++ {
			p.rootItems = append(p.rootItems, rootTag|mem.Address(i))
		}
		modSegs = append(modSegs, p.rootItems[:n])
	}
	p.drainIncrements(modSegs)
	ev.PhaseArg(trace.NameIncrements, ph, uint64(len(modSegs)))

	// 4b. The SATB inbox may hold snapshot edges captured before this
	// pause's young evacuations (decSegs seeded in step 3, plus
	// barrier captures from earlier epochs). Rewrite them through the
	// still-intact forwarding words before the moved-from blocks can be
	// released and reused: an unresolved entry would be filtered as
	// dead (the old address reads RC 0) and silently cut the snapshot
	// closure — the same hazard G1 fixes with ResolvePending after its
	// evacuation pauses. With no forwarding word installed anywhere
	// there is nothing to rewrite, and the pass would be one header
	// miss per queued address for nothing.
	fwdLive := p.forwardingLive()
	if fwdLive && p.satbActive.Load() {
		ph = time.Now()
		p.tracer.ResolvePending(func(r obj.Ref) obj.Ref {
			if !p.plausibleRef(r) {
				return r
			}
			return p.om.Resolve(r)
		})
		ev.Phase(trace.NameResolve, ph)
	}

	// 5. Deferred root decrements: last epoch's root referents receive
	// decrements now; this epoch's roots are buffered for the next.
	// The tracer inbox owns decSegs from step 3 (Seed is zero-copy), so
	// the combined batch goes into a slice of its own: decBuf, free
	// again since step 2 (see the field's comment).
	ph = time.Now()
	decs := p.decBuf[:0]
	for _, s := range decSegs {
		decs = append(decs, s...)
	}
	decs = append(decs, p.rootDecs...)
	p.decBuf = decs
	p.rootDecs = p.gatherRootDecs(p.rootDecs[:0])

	// 5a. Resolve the batch through forwarding NOW, while the pointers
	// installed by this pause's young evacuations are still intact. The
	// sweep below releases the evacuated-from young blocks, and a
	// mutator may recycle and zero them before the concurrent thread
	// gets to these decrements — a stale address would then resolve
	// through clobbered memory and decrement whatever young object was
	// allocated over it. Items are independent, so the batch partitions
	// over the pause workers; this was the last serial O(decrements)
	// loop in the pause. Skipped, like 4b, when no forwarding word is
	// installed: every address is then already final.
	if fwdLive {
		p.parFor(len(decs), parResolveThreshold, func(start, end int) {
			for i, a := range decs[start:end] {
				if r := obj.Ref(a); p.plausibleRef(r) {
					decs[start+i] = mem.Address(p.om.Resolve(r))
				}
			}
		})
	}
	ev.PhaseArg(trace.NameRootDecs, ph, uint64(len(decs)))

	// 5b. Release the blocks the concurrent thread's completed
	// decrement batches freed. Done here — not concurrently — so
	// freed lines can never be reused before this pause's increments
	// have protected every surviving young object.
	ph = time.Now()
	p.conc.releaseReclaimable()
	ev.Phase(trace.NameReclaim, ph)

	// 6. Young sweep: blocks allocated into this epoch. Blocks whose
	// lines carry no reference counts are entirely dead young objects
	// and are reclaimed immediately — before any decrement is processed
	// (the implicitly-dead optimisation, §3.3.1).
	ph = time.Now()
	cleanYielded := p.sweepYoung()
	p.sweepNewLarge()
	ev.PhaseArg(trace.NameSweep, ph, uint64(cleanYielded))

	// 7. SATB completion. The driver sweeps what the trace left unmarked
	// and the next pause finishes it (step 2); an emergency and the -SATB
	// and -LD ablations sweep here, where the young sweep left no block
	// dirty.
	if traceComplete {
		hadMark = true
		ph = time.Now()
		p.completeSATB(cause == pauseCauseEmergency || p.cfg.NoConcurrentSATB || p.cfg.NoLazyDecrements)
		ev.Phase(trace.NameSATBFinal, ph)
	}

	// 8. Triggers: feed the epoch's survival observation to the pacer
	// — which recomputes the next epoch's allocation budget — then put
	// the SATB cycle vote to it, which only an explicit collection and a
	// persisting allocation failure force: a heap that is always full at
	// block granularity fails an allocation at most pauses. No trace
	// starts while a sweep is armed: its marks are not yet clear.
	survived := p.survived.Load()
	st.Add(CtrSurvivedBytes, survived)
	ph = time.Now()
	p.pacer.ObserveEpoch(allocVol, survived)
	if !p.satbActive.Load() && p.conc.sweepNext == 0 && p.pacer.CycleDue(cause == pauseCauseEmergency || cause == pauseCauseExplicit) {
		p.startSATB()
		st.Add(CtrPausesSATB, 1)
		if p.cfg.NoConcurrentSATB || cause == pauseCauseEmergency && !traceComplete {
			// -SATB ablation, or an emergency with no trace to finish:
			// the whole trace (and its reclamation) happens inside this
			// pause — a mark pause for attribution.
			hadMark = true
			p.tracer.DrainParallel(p.pool)
			p.completeSATB(true)
		}
	}
	ev.Phase(trace.NamePacer, ph)

	// 9. Hand decrements over: lazily to the concurrent thread, or — for
	// the -LD ablation — processed right here by the pause workers (which
	// makes every pause a decrement pause for attribution purposes).
	ph = time.Now()
	if p.cfg.NoLazyDecrements {
		hadDec = true
		p.processDecWork([][]mem.Address{decs}, nil)
	} else {
		p.conc.submitDecs(decs)
	}
	ev.Phase(trace.NameDecSubmit, ph)
	p.verifyHeap("end")
	if testPauseHook != nil {
		testPauseHook(p)
	}
	p.epoch.Add(1)
	kind := "rc"
	if hadDec {
		kind += "+dec"
	}
	if hadMark {
		kind += "+mark"
	}
	return kind
}

// Serial-fallback thresholds for the pause's data-parallel loops. Waking
// the worker pool costs a few microseconds, so small batches stay serial.
const (
	// parResolveThreshold gates the decrement-batch resolve; resolve
	// does real per-item work (forwarding-word loads), so it pays off
	// at moderate batch sizes.
	parResolveThreshold = 512
	// parClearThreshold gates full-table clears (mark bits), measured
	// in table words: small tables finish serially in less time than a
	// pool dispatch.
	parClearThreshold = 1 << 14
)

// parFor runs f over [0, n) partitioned across the pause workers, or
// serially when n is below the given threshold.
func (p *LXR) parFor(n, threshold int, f func(start, end int)) {
	if n == 0 {
		return
	}
	if n < threshold || p.pool == nil {
		f(0, n)
		return
	}
	p.pool.ParallelFor(n, func(_, start, end int) { f(start, end) })
}

// gatherRootDecs appends the referent of every non-nil root slot to dst:
// the deferred decrements owed when these roots are dropped at the next
// epoch.
func (p *LXR) gatherRootDecs(dst []obj.Ref) []obj.Ref {
	for _, s := range p.rootSlots {
		if !(*s).IsNil() {
			dst = append(dst, *s)
		}
	}
	return dst
}

// testPauseHook, when non-nil, runs at the end of every pause with the
// world still stopped (test instrumentation only).
var testPauseHook func(*LXR)

// testDoubleAllocHook, when non-nil, fires when a survivor copy lands
// on a granule that already carries a reference count — a span handed
// out twice (test instrumentation only).
var testDoubleAllocHook func(p *LXR, src, dst obj.Ref, oldRC uint32, al *immix.Allocator)

// --- increment processing -----------------------------------------------------

// promoRing is how many promotions an increment drain worker keeps in flight.
const promoRing = 8

// incScratch is one pause worker's private state for the increment
// drain: its survivor copy allocator (young evacuation needs no lock)
// and the epoch's promotion tallies, which reach the shared cells once
// per worker at teardown instead of once per promoted object.
type incScratch struct {
	alloc            immix.Allocator
	ring             [promoRing]struct{ slot, val mem.Address } // promotions in flight: heap slots whose targets read count 0
	head, queued     int                                        // the oldest ring entry, and how many there are
	survived, copied int64                                      // young bytes surviving, and the share of them evacuated
	promoted, stuck  int64                                      // objects promoted; counts pinned at the maximum
}

func (sc *incScratch) noteStuck(old uint32) {
	if old == 2 { // 2→3 transition pins the count
		sc.stuck++
	}
}

// forwardingLive reports whether any object in the heap may carry an
// installed forwarding word right now, i.e. whether an address captured
// before a copy can still need rewriting: this pause's increments
// evacuated a young object. It reads what happened, not what is
// configured. Call it after the increment drain.
func (p *LXR) forwardingLive() bool {
	return p.copiedY.Load() > 0
}

// drainIncrements processes the increment closure in parallel. Seed
// work arrives segment-granular (modified-field buffer segments plus a
// segment of rootTag-tagged root indices); items are either heap slot
// addresses (from the buffers or from scanning newly promoted objects)
// or rootTag-tagged root indices.
//
// The drain is a chain of dependent misses into a heap the mutator has
// just streamed through — slot, the target's count, a promotion's header
// — so each item first prefetches the slot of the item a few pops ahead
// on the worker's stack (a root index is no arena address and is
// ignored), and a heap slot whose target's count reads 0 waits in the
// worker's ring behind a prefetch of that header (DESIGN.md, "Lookahead
// prefetch"). The ring empties whenever the local stack does, so no
// worker looks for shared work, idles or ends with a promotion queued.
func (p *LXR) drainIncrements(segs [][]mem.Address) {
	seeded := int64(0)
	for _, s := range segs {
		seeded += int64(len(s))
	}
	p.pool.DrainSegs(segs,
		func(w *gcwork.Worker) {
			// Survivors compact into partially free blocks.
			w.Scratch = &incScratch{alloc: immix.Allocator{BT: p.bt, Lines: p.rc, OnSpan: p.onSpan}}
		},
		func(w *gcwork.Worker, item mem.Address) {
			if a, ok := w.Ahead(gcwork.PrefetchAhead); ok {
				p.om.A.Prefetch(a)
			}
			sc := w.Scratch.(*incScratch)
			p.incItem(w, sc, item)
			if _, ok := w.Ahead(1); !ok {
				for sc.queued > 0 {
					p.applyOldest(w, sc)
				}
			}
		},
		func(w *gcwork.Worker) {
			sc := w.Scratch.(*incScratch)
			if sc.queued != 0 {
				panic(fmt.Sprintf("lxr: increment drain worker %d ended with %d promotions queued", w.ID, sc.queued))
			}
			sc.alloc.Flush()
			p.survived.Add(sc.survived)
			p.copiedY.Add(sc.copied)
			p.ctr.promoted.Add(sc.promoted)
			p.ctr.evacYoung.Add(sc.copied)
			p.ctr.stuck.Add(sc.stuck)
		})
	p.vm.Stats.Add(CtrIncrements, seeded)
}

// incItem takes one drain item: it applies its increment at once, or
// queues a heap slot whose target reads count 0 in the ring.
func (p *LXR) incItem(w *gcwork.Worker, sc *incScratch, item mem.Address) {
	if item&rootTag != 0 {
		slot := p.rootSlots[int(item&^rootTag)]
		v := *slot
		if v.IsNil() {
			return
		}
		if !p.saneRef(v) {
			p.skipInc(item, v)
			return
		}
		*slot = p.applyInc(w, sc, item, v)
		return
	}
	// Re-arm the barrier for this field and the fifteen sharing its
	// log word: one plain store (DESIGN.md, "Re-arming by the word").
	p.logs.ArmWord(item)
	v := p.om.A.LoadRef(item)
	if v.IsNil() {
		return
	}
	if verifyEnabled {
		if !p.plausibleRef(v) {
			p.diagnoseSlot(item, v)
		} else if s := p.om.Size(v); s < 16 || (s > 16<<10 && !p.om.IsLarge(v)) || p.om.NumRefs(v) > 8000 {
			p.diagnoseSlot(item, v)
		}
	}
	if p.rc.Get(v) != 0 {
		p.applyInc(w, sc, item, v) // a counted object never moves
		return
	}
	if sc.queued == promoRing {
		p.applyOldest(w, sc)
	}
	p.om.A.Prefetch(v)
	e := &sc.ring[(sc.head+sc.queued)%promoRing]
	e.slot, e.val = item, v
	sc.queued++
}

// applyOldest applies the oldest queued promotion; applyInc re-reads the
// count, so a target promoted meanwhile takes a plain increment.
func (p *LXR) applyOldest(w *gcwork.Worker, sc *incScratch) {
	e := sc.ring[sc.head]
	sc.head, sc.queued = (sc.head+1)%promoRing, sc.queued-1
	if nv := p.applyInc(w, sc, e.slot, e.val); nv != e.val {
		p.om.A.StoreRef(e.slot, nv)
	}
}

// applyInc applies one coalesced increment to val, the non-nil referent
// of slot (a heap slot address, or rootTag|i for root i), and returns
// the address the slot must hold afterwards: val itself, or the copy
// when val was evacuated — by this call, on the first increment a young
// object receives, or earlier.
//
// The count decides before the object is touched. A counted object is
// never forwarded, so its increment needs no header load (DESIGN.md,
// "Metadata before memory"): young evacuation counts only the copy, and
// the one claim ever held on a counted object is an in-place
// promotion's, between its count and its abandon, which leaves the
// object where it is. Only a zero count — a young object, or a young
// evacuation's source — goes on to the forwarding word.
func (p *LXR) applyInc(w *gcwork.Worker, sc *incScratch, slot mem.Address, val obj.Ref) obj.Ref {
	for {
		if p.rc.Get(val) != 0 {
			if verifyEnabled {
				if to := p.om.SpinForwarded(val); to != val {
					panic(fmt.Sprintf("lxr verify epoch %d: counted object %x (rc %d) is forwarded to %x",
						p.epoch.Load(), uint64(val), p.rc.Get(val), uint64(to)))
				}
			}
			sc.noteStuck(p.rc.Inc(val))
			return val
		}
		fw := p.om.ForwardingWord(val)
		switch fw & 3 {
		case obj.FwdForwarded:
			nv := obj.Ref(fw >> 2)
			sc.noteStuck(p.rc.Inc(nv))
			return nv
		case obj.FwdBusy:
			continue // another worker is copying; spin until published
		}
		if !p.saneRef(val) {
			p.skipInc(slot, val)
			return val
		}
		// Young object receiving its 0→1 increment (§3.3.2): it is
		// promoted now, and — when it sits in an all-young block and
		// space permits — evacuated.
		if p.youngEvacCandidate(val) {
			if !p.om.TryClaimForwarding(val) {
				continue // racing promoter; spin
			}
			if p.rc.Get(val) != 0 { // raced with in-place promotion
				p.om.AbandonForwarding(val)
				continue
			}
			size := p.om.Size(val)
			if dst, ok := sc.alloc.Alloc(size); ok {
				p.om.CopyTo(val, dst)
				if old := p.rc.Inc(dst); old != 0 && testDoubleAllocHook != nil {
					testDoubleAllocHook(p, val, dst, old, &sc.alloc)
				}
				p.finishPromotion(w, sc, dst, true)
				p.om.InstallForwarding(val, dst)
				return dst
			}
			// No space: increment in place before abandoning the
			// claim so racing claimants observe a non-zero count.
			p.rc.Inc(val)
			p.finishPromotion(w, sc, val, false)
			p.om.AbandonForwarding(val)
			return val
		}
		if old := p.rc.Inc(val); old == 0 {
			p.finishPromotion(w, sc, val, false)
		} else {
			sc.noteStuck(old)
		}
		return val
	}
}

// youngEvacCandidate reports whether ref sits in a block containing only
// young objects (clean when handed to an allocator this epoch): the
// all-young evacuation heuristic (§3.3.2).
func (p *LXR) youngEvacCandidate(ref obj.Ref) bool {
	return !p.om.IsLarge(ref) && p.bt.HasFlag(ref.Block(), immix.FlagYoung)
}

// finishPromotion performs the duties owed to a young object surviving
// its first collection, at its final address: account survival, write
// straddle-line markers so the allocator will not reuse its interior
// lines (§3.1), arm the write barrier for its fields by the word (ending
// its implicitly-dead status), keep it live for an in-flight SATB trace, and
// enqueue recursive increments for its referents.
func (p *LXR) finishPromotion(w *gcwork.Worker, sc *incScratch, ref obj.Ref, copied bool) {
	size := p.om.Size(ref)
	sc.survived += int64(size)
	sc.promoted++
	if copied {
		sc.copied += int64(size)
	}
	p.markStraddleLines(ref, size)
	if p.satbActive.Load() {
		p.marks.Set(ref)
	}
	first, end := p.om.SlotAddr(ref, 0), p.om.SlotAddr(ref, p.om.NumRefs(ref))
	p.logs.ArmWords(first, end)
	for slot := first; slot < end; slot += mem.WordSize {
		if child := p.om.A.LoadRef(slot); !child.IsNil() {
			if !p.plausibleRef(child) {
				p.skipInc(slot, child)
				continue
			}
			w.Push(slot)
		}
	}
}

// markStraddleLines writes a non-zero RC-table entry (and a straddle
// bit, excluding the granule from object-start enumeration) for each
// trailing line except the last, so the line allocator cannot reuse
// them (§3.1).
func (p *LXR) markStraddleLines(ref obj.Ref, size int) {
	if p.om.IsLarge(ref) || size <= mem.LineSize {
		return
	}
	endLine := (ref + mem.Address(size) - 1).Line()
	if maxLine := (ref.Block()+1)*mem.LinesPerBlock - 1; endLine > maxLine {
		endLine = maxLine // objects never span blocks (see reclaimObjectMeta)
	}
	for l := ref.Line() + 1; l < endLine; l++ {
		a := mem.LineStart(l)
		p.rc.Set(a, 1)
		p.straddle.Set(a)
	}
}

// --- young sweep ---------------------------------------------------------------

// sweepYoung examines every block allocated into this epoch. Lines whose
// RC-table words are zero hold only dead young objects; whole-zero
// blocks return to the clean pool (most memory is reclaimed here,
// without copying or decrement processing). Returns the number of clean
// blocks yielded.
func (p *LXR) sweepYoung() int {
	dirty := p.bt.TakeDirty()
	var freed atomic.Int64
	p.pool.ParallelFor(len(dirty), func(_, start, end int) {
		for _, idx := range dirty[start:end] {
			if p.bt.State(idx) != immix.StateFull {
				p.bt.ClearFlag(idx, immix.FlagYoung|immix.FlagDirty)
				continue
			}
			switch p.classifyBlock(idx) {
			case blockEmpty:
				p.bt.ReleaseFree(idx)
				freed.Add(1)
			case blockPartial:
				p.bt.ReleaseRecycled(idx)
			default:
				p.bt.ClearFlag(idx, immix.FlagYoung|immix.FlagDirty)
			}
		}
	})
	p.vm.Stats.Add(CtrYoungFreeBlk, freed.Load())
	return int(freed.Load())
}

type blockClass int

const (
	blockEmpty blockClass = iota
	blockPartial
	blockFullLive
)

// classifyBlock inspects a block's RC-table line words. Classification
// needs only "any line free / any line used", so the scan runs word-at-
// a-time over the RC table with early exit (meta.RCTable.LineSummary)
// instead of 128 per-line interface probes per block.
func (p *LXR) classifyBlock(idx int) blockClass {
	anyFree, anyUsed := p.rc.LineSummary(idx*mem.LinesPerBlock, mem.LinesPerBlock)
	switch {
	case !anyUsed:
		return blockEmpty
	case anyFree:
		return blockPartial
	default:
		return blockFullLive
	}
}

// sweepNewLarge frees large objects allocated this epoch that received
// no increment (implicitly dead young large objects).
func (p *LXR) sweepNewLarge() {
	for _, a := range p.losNewMu.q.Take() {
		if p.rc.Get(a) == 0 {
			p.bt.LOS().Free(a)
		}
	}
}
