package core

import (
	"lxr/internal/gcwork"
	"lxr/internal/immix"
	"lxr/internal/mem"
	"lxr/internal/obj"
)

// decDeath handles an object whose last reference is gone: it upholds
// the SATB interruption invariant (never delete an unmarked object while
// a trace is underway — mark and scan it first, §3.2.2), pushes
// recursive decrements for its referents, and reclaims its memory. The
// count is cleared last, so on the concurrent driver the object's line
// reads free only once the scan is over. pushRec receives child
// references; record receives the touched block.
func (p *LXR) decDeath(ref obj.Ref, pushRec func(obj.Ref), record func(int)) {
	p.ctr.deadOld.Add(1)
	if p.satbActive.Load() && !p.marks.Get(ref) {
		p.marks.Set(ref)
		// Scan into the SATB trace before the memory can be reclaimed;
		// seeds go through the tracer's thread-safe inbox so both the
		// concurrent thread and in-pause parallel workers may use this.
		p.om.EachSlot(ref, func(_ int, _ mem.Address, v obj.Ref) {
			if !v.IsNil() {
				p.tracer.SeedOne(v)
			}
		})
	}
	p.om.EachSlot(ref, func(_ int, _ mem.Address, v obj.Ref) {
		if !v.IsNil() {
			pushRec(v)
		}
	})
	if p.om.IsLarge(ref) {
		p.rc.Set(ref, 0)
		p.bt.LOS().Free(ref)
		return
	}
	p.reclaimObjectMeta(ref)
	record(ref.Block())
}

// applyDec applies one decrement (following forwarding installed by
// evacuation) and performs death processing on a 1→0 transition.
//
// onDriver is true only on the concurrent driver. There, mutators
// allocate alongside: a count that read 0 before the death scan would
// let an allocator take the line, zero it and allocate over the dying
// object, whose scan would then decrement the new object's live
// referents. Outside pauses the driver is the only decrementer
// (increments happen only in pauses), so it tests the count and leaves
// a last count of 1 for decDeath to clear after the scan. Pause workers
// decrement concurrently with each other, so they take the atomic 1→0;
// no allocator runs in a pause.
func (p *LXR) applyDec(onDriver bool, ref obj.Ref, pushRec func(obj.Ref), record func(int)) {
	if !p.plausibleRef(ref) {
		p.ctr.skip.Add(1)
		return
	}
	ref = p.om.Resolve(ref)
	if !p.saneRef(ref) {
		p.ctr.skip.Add(1)
		return
	}
	p.ctr.decrements.Add(1)
	if onDriver && p.rc.Get(ref) == 1 || p.rc.Dec(ref) == 1 {
		p.decDeath(ref, pushRec, record)
	}
}

// processDecsInPause drains a decrement batch with the parallel worker
// pool (used by the -LD ablation, where every pause drains its own
// batch).
func (p *LXR) processDecsInPause(decs []mem.Address) {
	if len(decs) == 0 {
		return
	}
	p.processDecWork([][]mem.Address{decs}, nil)
}

// processDecWork finishes decrement work inside a pause, segment-granular
// across all N pause workers. Each worker records touched blocks in its
// own slot of a per-worker array (worker IDs are stable), so the merge
// needs no lock. seedTouched carries blocks the concurrent driver's
// partially completed batches had already touched; they are released
// here together with the blocks this drain touches.
func (p *LXR) processDecWork(segs [][]mem.Address, seedTouched []int) {
	perWorker := make([]map[int]struct{}, p.pool.N)
	if len(segs) > 0 {
		p.pool.DrainSegs(segs, func(w *gcwork.Worker) {
			perWorker[w.ID] = map[int]struct{}{}
			w.Scratch = perWorker[w.ID]
		}, func(w *gcwork.Worker, a mem.Address) {
			local := w.Scratch.(map[int]struct{})
			p.applyDec(false, obj.Ref(a),
				func(c obj.Ref) { w.Push(c) },
				func(b int) { local[b] = struct{}{} })
		}, nil)
	}
	touched := map[int]struct{}{}
	for _, b := range seedTouched {
		touched[b] = struct{}{}
	}
	for _, m := range perWorker {
		for b := range m {
			touched[b] = struct{}{}
		}
	}
	for b := range touched {
		p.maybeReleaseAfterDecs(b)
	}
}

// maybeReleaseAfterDecs re-examines a block in which decrements freed
// objects (lazy reclamation, §3.3.1). Only full, unlisted blocks without
// fresh allocation change state: a dirty block waits for the young sweep.
func (p *LXR) maybeReleaseAfterDecs(idx int) {
	if p.bt.State(idx) != immix.StateFull || p.bt.HasFlag(idx, immix.FlagDirty) {
		return
	}
	switch p.classifyBlock(idx) {
	case blockEmpty:
		p.bt.ReleaseFree(idx)
	case blockPartial:
		p.bt.ReleaseRecycled(idx)
	}
}
