package core

import (
	"math/bits"
	"sync/atomic"

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

// finalizeSATB runs in the pause where the trace completed: it reclaims
// unmarked mature objects (cycles and stuck counts that reference
// counting cannot collect), clears mark bits, and tells the pacer what
// the trace freed.
func (p *LXR) finalizeSATB() {
	freed := p.sweepUnmarked()
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
	p.pool.ParallelFor(n, func(_, start, end int) {
		// Totals are batched per claimed range, not added per block.
		died, skipped, bytes := 0, 0, 0
		for i := start; i < end; i++ {
			idx := i + 1 // main blocks are 1-based
			st := p.bt.State(idx)
			if st != immix.StateFull && st != immix.StateRecycled {
				continue
			}
			d, sk, b := p.sweepBlockUnmarked(idx)
			died += d
			skipped += sk
			bytes += b
			// Only full, unlisted blocks may change state here; blocks
			// already on the recycled list stay put (their free lines
			// are found on reuse).
			if d > 0 && st == immix.StateFull {
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
			p.ctr.skip.Add(int64(skipped))
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

// plausibleRef reports whether v could be an object reference: non-nil,
// granule-aligned, and inside the arena. Values read through stale
// queue entries, or torn by a concurrent trace scanning memory reclaimed
// under it, can be arbitrary bit patterns; implausible ones are
// discarded before any side-metadata lookup.
func (p *LXR) plausibleRef(v obj.Ref) bool {
	return !v.IsNil() && v&(mem.Granule-1) == 0 && p.om.A.Contains(v)
}
