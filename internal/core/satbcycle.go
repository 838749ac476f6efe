package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
)

// startSATB begins a concurrent trace epoch inside the current pause:
// it selects evacuation sets (blocks under the occupancy threshold,
// lowest occupancy first, §3.3.2), resets the line reuse counters that
// validate remembered-set entries, and seeds the tracer with the current
// root set. Without mature evacuation nothing records or validates a
// remembered-set entry, so the counters are left alone (as in onSpan).
func (p *LXR) startSATB() {
	if p.cfg.EnableMatureEvac {
		p.selectEvacSets()
		p.parFor(p.reuse.Len(), parClearThreshold, p.reuse.ResetRange)
	}
	p.tracer.Begin()
	seeds := p.gatherRootDecs(make([]obj.Ref, 0, len(p.rootSlots)))
	p.tracer.Seed(seeds)
	p.traceEpochs = 0
	p.satbActive.Store(true)
}

// defragOccupancy is the block-occupancy ceiling for evacuation-set
// candidacy (§3.3.2).
const defragOccupancy = 0.5

// defragMaxBlocks caps the evacuation-set size at a sixteenth of the
// heap's blocks.
func defragMaxBlocks(heapBytes int) int {
	if n := heapBytes / mem.BlockSize / 16; n > 4 {
		return n
	}
	return 4
}

// selectEvacSets flags defragmentation targets: full blocks whose
// RC-table occupancy upper bound is below defragOccupancy, sorted from
// the lowest occupancy, capped at defragMaxBlocks. The occupancy scan
// reads 128 RC words per block, so candidates are gathered in parallel
// (per-worker partials, merged before the sort).
func (p *LXR) selectEvacSets() {
	type cand struct{ idx, live int }
	limit := int(defragOccupancy * mem.GranulesPerBlock)
	var cands []cand
	outs := make([][]cand, p.pool.N)
	p.pool.ParallelFor(p.bt.Blocks(), func(w, start, end int) {
		out := outs[w]
		for i := start; i < end; i++ {
			idx := i + 1 // main blocks are 1-based
			if p.bt.State(idx) != immix.StateFull || p.bt.HasFlag(idx, immix.FlagEvacuating) {
				continue
			}
			if live := p.rc.BlockLiveGranules(idx); live < limit {
				out = append(out, cand{idx, live})
			}
		}
		outs[w] = out
	})
	for _, out := range outs {
		cands = append(cands, out...)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].live < cands[j].live })
	if max := defragMaxBlocks(p.cfg.HeapBytes); len(cands) > max {
		cands = cands[:max]
	}
	p.evacSet = p.evacSet[:0]
	for _, c := range cands {
		p.bt.SetFlag(c.idx, immix.FlagDefrag)
		p.evacSet = append(p.evacSet, c.idx)
	}
}

// finalizeSATB runs in the pause where the trace completed: it reclaims
// unmarked mature objects (cycles and stuck counts that reference
// counting cannot collect), evacuates the evacuation sets, clears mark
// bits, and tells the pacer what the trace freed.
func (p *LXR) finalizeSATB() {
	freed := p.sweepUnmarked()
	if p.cfg.EnableMatureEvac && len(p.evacSet) > 0 {
		p.evacuateSets()
	}
	p.parFor(p.marks.Words(), parClearThreshold, p.marks.ClearWords)
	p.tracer.Finish()
	p.satbActive.Store(false)
	p.pacer.ObserveTrace(freed)
}

// sweepUnmarked reclaims every mature object the completed trace left
// unmarked. An unmarked object with a non-zero count was dead at the
// snapshot: clearing its counts frees its lines; no recursive
// decrements are needed because the entire unreachable subgraph is
// unmarked and swept in the same pass (§3.3.2, "SATB Reclamation").
// Returns the bytes of the objects it freed.
func (p *LXR) sweepUnmarked() int64 {
	var dead, freed atomic.Int64
	n := p.bt.Blocks()
	p.pool.ParallelFor(n, func(w, start, end int) {
		// Totals are batched per claimed range: one add to the shared
		// cell and one to the worker's counter shard, not one per block.
		died, skipped, bytes := 0, 0, 0
		for i := start; i < end; i++ {
			idx := i + 1 // main blocks are 1-based
			st := p.bt.State(idx)
			if st != immix.StateFull && st != immix.StateRecycled {
				continue
			}
			if p.bt.HasFlag(idx, immix.FlagEvacuating) {
				continue
			}
			d, sk, b := p.sweepBlockUnmarked(idx)
			died += d
			skipped += sk
			bytes += b
			// Only full, unlisted blocks may change state here; blocks
			// already on the recycled list stay put (their free lines
			// are found on reuse), and defrag targets are released
			// after evacuation.
			if d > 0 && st == immix.StateFull && !p.bt.HasFlag(idx, immix.FlagDefrag) {
				switch p.classifyBlock(idx) {
				case blockEmpty:
					p.bt.ReleaseFree(idx)
				case blockPartial:
					p.bt.ReleaseRecycled(idx)
				}
			}
		}
		dead.Add(int64(died))
		freed.Add(int64(bytes))
		if skipped > 0 {
			p.ctr.skip.AddAt(w+1, int64(skipped))
		}
	})
	// Large object space.
	p.bt.LOS().Each(func(a mem.Address) {
		if p.rc.Get(a) != 0 && !p.marks.Get(a) {
			p.rc.Set(a, 0)
			freed.Add(int64(p.om.Size(a)))
			p.bt.LOS().Free(a)
			dead.Add(1)
		}
	})
	p.vm.Stats.Add(CtrDeadSATB, dead.Load())
	return freed.Load()
}

// sweepBlockUnmarked clears the metadata of unmarked objects in one
// block, returning how many died, how many counted granules were
// skipped because they do not decode to an object, and the bytes the
// dead objects held. It walks metadata
// words, not granules: a free line costs one RC-word load, a live line
// three loads (meta.RCTable.UnmarkedStarts), and only a granule whose
// mask bit is set — an unmarked, counted object start — is looked at.
// The mask is taken per line, when the walk reaches it: reclaiming an
// object clears the straddle markers on its later lines, and those
// lines must then read as the per-granule walk would have read them.
func (p *LXR) sweepBlockUnmarked(idx int) (dead, skipped, bytes int) {
	first := idx * mem.LinesPerBlock
	for l := first; l < first+mem.LinesPerBlock; l++ {
		for m := p.rc.UnmarkedStarts(l, p.marks, p.straddle); m != 0; m &= m - 1 {
			a := mem.LineStart(l) + mem.Address(bits.TrailingZeros32(m))<<mem.GranuleLog
			if !p.saneRef(a) {
				// A counted granule that does not decode to an object:
				// clear the stray count but leave neighbours alone.
				p.rc.Set(a, 0)
				skipped++
				continue
			}
			bytes += p.reclaimObjectMeta(a)
			dead++
		}
	}
	return dead, skipped, bytes
}

// reclaimObjectMeta clears the RC count and straddle markers of a dead
// object so its lines become reusable, and returns the object's size.
func (p *LXR) reclaimObjectMeta(ref obj.Ref) int {
	size := p.om.Size(ref)
	p.rc.Set(ref, 0)
	if size > mem.LineSize {
		endLine := (ref + mem.Address(size) - 1).Line()
		// Objects never span blocks; clamping bounds the metadata walk
		// even if the header was clobbered, so one corrupt object can
		// never wipe another block's counts.
		if maxLine := (ref.Block()+1)*mem.LinesPerBlock - 1; endLine > maxLine {
			endLine = maxLine
		}
		for l := ref.Line() + 1; l < endLine; l++ {
			a := mem.LineStart(l)
			p.rc.Set(a, 0)
			p.straddle.Clear(a)
		}
	}
	return size
}

// --- mature evacuation ----------------------------------------------------------

// evacuateSets defragments the evacuation sets inside the pause, using
// the remembered sets (validated against line reuse counters) plus the
// current roots as the incoming-reference set. The bounded trace follows
// pointers only within the sets; each copied object's counts transfer to
// the new copy and the incoming slot is redirected (§3.3.2).
func (p *LXR) evacuateSets() {
	entries := p.rem.TakeAll()
	p.parFor(p.visited.Words(), parClearThreshold, p.visited.ClearWords)
	// Reused below as a per-block evacuation-failure count.
	p.parFor(p.bt.Arena.Blocks(), parClearThreshold, p.bt.ClearLiveRange)

	// Entries are validated against line reuse counters now and the
	// values re-checked at processing time: survivor allocators may
	// recycle a stale entry's line during this very pause.
	items := make([]mem.Address, 0, len(entries)+len(p.rootSlots))
	for _, e := range entries {
		if p.rem.Valid(e) {
			items = append(items, e.Slot)
		}
	}
	for i := range p.rootSlots {
		items = append(items, rootTag|mem.Address(i))
	}

	var copied atomic.Int64
	p.pool.Drain(items,
		func(w *gcwork.Worker) {
			w.Scratch = &immix.Allocator{BT: p.bt, Lines: p.rc, OnSpan: p.onSpan}
		},
		func(w *gcwork.Worker, item mem.Address) {
			if item&rootTag != 0 {
				slot := p.rootSlots[int(item&^rootTag)]
				p.evacSlot(w, &copied, func() obj.Ref { return *slot }, func(v obj.Ref) { *slot = v })
			} else {
				p.evacSlot(w, &copied,
					func() obj.Ref { return p.om.A.LoadRef(item) },
					func(v obj.Ref) { p.om.A.StoreRef(item, v) })
			}
		},
		func(w *gcwork.Worker) { w.Scratch.(*immix.Allocator).Flush() })
	p.vm.Stats.Add(CtrMatureEvacObjs, copied.Load())

	// Source blocks hold forwarding pointers that pending lazy
	// decrements may still need; they are quarantined until the
	// decrement queue drains, then line-scanned and released.
	for _, idx := range p.evacSet {
		p.bt.ClearFlag(idx, immix.FlagDefrag)
		p.bt.SetFlag(idx, immix.FlagEvacuating)
	}
	p.conc.submitEvacBlocks(p.evacSet)
	p.evacSet = p.evacSet[:0]
}

// evacSlot processes one incoming reference during evacuation.
func (p *LXR) evacSlot(w *gcwork.Worker, copied *atomic.Int64, get func() obj.Ref, set func(obj.Ref)) {
	val := get()
	if !p.plausibleRef(val) {
		return // nil, or garbage read through a stale remset entry
	}
	if !p.bt.HasFlag(val.Block(), immix.FlagDefrag) {
		return // outside the evacuation set: out of scope (§3.3.2)
	}
	if !p.saneRef(val) {
		return // stale entry decoding to a non-object
	}
	dst, moved, live := p.ensureEvacuated(w, copied, val)
	if !live {
		return // dead object or stale entry: nothing to redirect
	}
	if moved {
		set(dst)
	}
	// Scan the object once for pointers that stay within the sets.
	if p.visited.TrySet(val) {
		n := p.om.NumRefs(dst)
		for i := 0; i < n; i++ {
			slot := p.om.SlotAddr(dst, i)
			if child := p.om.A.LoadRef(slot); p.plausibleRef(child) &&
				p.bt.HasFlag(child.Block(), immix.FlagDefrag) {
				w.Push(slot)
			}
		}
	}
}

// ensureEvacuated copies val out of its block exactly once, transferring
// its reference count and clearing the source's metadata. When the copy
// reserve is exhausted the object stays in place (recorded as a
// per-block failure so the block is not treated as empty).
func (p *LXR) ensureEvacuated(w *gcwork.Worker, copied *atomic.Int64, val obj.Ref) (dst obj.Ref, moved, live bool) {
	for {
		fw := p.om.ForwardingWord(val)
		switch fw & 3 {
		case obj.FwdForwarded:
			return obj.Ref(fw >> 2), true, true
		case obj.FwdBusy:
			continue
		}
		if p.rc.Get(val) == 0 || p.straddle.Get(val) {
			return val, false, false // dead object or stale remset entry
		}
		if !p.om.TryClaimForwarding(val) {
			continue
		}
		size := p.om.Size(val)
		sa := w.Scratch.(*immix.Allocator)
		d, ok := sa.Alloc(size)
		if !ok {
			p.om.AbandonForwarding(val)
			p.bt.AddLive(val.Block(), 1) // evacuation failure: block stays live
			return val, false, true
		}
		p.om.CopyTo(val, d)
		p.rc.Set(d, p.rc.Get(val))
		p.markStraddleLines(d, size)
		p.logs.SetUnloggedRange(p.om.SlotAddr(d, 0), p.om.SlotAddr(d, p.om.NumRefs(d)))
		// The source's count goes to zero BEFORE the forwarding word is
		// published: "counted ⇒ not forwarded" is what lets applyInc
		// increment a counted object without loading its header.
		p.reclaimObjectMeta(val) // free the source lines (block quarantined)
		if verifyEnabled && p.rc.Get(val) != 0 {
			panic(fmt.Sprintf("lxr verify epoch %d: evacuation source %x still counted (rc %d) as its forwarding word is published",
				p.epoch.Load(), uint64(val), p.rc.Get(val)))
		}
		p.om.InstallForwarding(val, d)
		copied.Add(1)
		return d, true, true
	}
}

// plausibleRef reports whether v could be an object reference: non-nil,
// granule-aligned, and inside the arena. Values read through stale
// remembered-set entries can be arbitrary bit patterns; implausible ones
// are discarded (the reuse-counter check catches the rest, §3.3.2).
func (p *LXR) plausibleRef(v obj.Ref) bool {
	return !v.IsNil() && v&(mem.Granule-1) == 0 && p.om.A.Contains(v)
}
