package core

import (
	"math/bits"

	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
)

// startSATB begins a concurrent trace epoch inside the current pause
// and seeds the tracer with the current root set.
func (p *LXR) startSATB() {
	p.tracer.Begin()
	seeds := p.gatherRootDecs(make([]obj.Ref, 0, len(p.rootSlots)))
	p.tracer.Seed(seeds)
	p.traceEpochs = 0
	p.satbActive.Store(true)
}

// completeSATB runs in the pause where the trace completed. It ends the
// trace and arms the reclamation sweep of every counted object the trace
// left unmarked (§3.3.2, "SATB Reclamation"): the concurrent driver
// sweeps the blocks between pauses and the next pause finishes the rest
// before it counts anything. inPause sweeps here instead.
func (p *LXR) completeSATB(inPause bool) {
	p.tracer.Finish()
	p.satbActive.Store(false)
	p.conc.sweepNext = 1 // main blocks are 1-based
	if inPause {
		p.finishSweep()
	}
}

// finishSweep completes the armed sweep in a pause, the driver
// quiescent: the blocks the driver has not reached, then the large
// objects. An unmarked counted object was dead at the snapshot, and so
// is its whole subgraph: clearing counts needs no recursive decrements.
// Blocks are released only as maybeReleaseAfterDecs allows (a dirty one
// may hold young objects not yet counted). Then it clears the marks and
// reports the dead and the bytes freed, which it returns.
func (p *LXR) finishSweep() int64 {
	c := p.conc
	first := c.sweepNext
	p.pool.ParallelFor(p.bt.Blocks()+1-first, func(_, start, end int) {
		for idx := first + start; idx < first+end; idx++ {
			if p.sweepBlock(idx) {
				p.maybeReleaseAfterDecs(idx)
			}
		}
	})
	// Large object space.
	p.bt.LOS().Each(func(a mem.Address) {
		if p.rc.Get(a) != 0 && !p.marks.Get(a) {
			p.rc.Set(a, 0)
			c.sweepFreed.Add(int64(p.om.Size(a)))
			p.bt.LOS().Free(a)
			c.sweepDead.Add(1)
		}
	})
	p.parFor(p.marks.Words(), parClearThreshold, p.marks.ClearWords)
	p.vm.Stats.Add(CtrDeadSATB, c.sweepDead.Swap(0))
	freed := c.sweepFreed.Swap(0)
	p.pacer.ObserveTrace(freed)
	c.sweepNext = 0
	return freed
}

// sweepBlock sweeps block idx when it may hold counted small objects
// (retired, recycled, or held by an allocator between pauses), adds
// what died to the sweep's totals, and reports whether anything did.
func (p *LXR) sweepBlock(idx int) bool {
	switch p.bt.State(idx) {
	case immix.StateFull, immix.StateRecycled, immix.StateReserved:
		d, skipped, b := p.sweepBlockUnmarked(idx)
		if skipped > 0 {
			p.ctr.skip.Add(int64(skipped))
		}
		if d > 0 {
			p.conc.sweepDead.Add(int64(d))
			p.conc.sweepFreed.Add(int64(b))
			return true
		}
	}
	return false
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

// plausibleRef reports whether v could be an object reference: non-nil,
// granule-aligned, and inside the arena. Values read through stale
// queue entries, or torn by a concurrent trace scanning memory reclaimed
// under it, can be arbitrary bit patterns; implausible ones are
// discarded before any side-metadata lookup.
func (p *LXR) plausibleRef(v obj.Ref) bool {
	return !v.IsNil() && v&(mem.Granule-1) == 0 && p.om.A.Contains(v)
}
